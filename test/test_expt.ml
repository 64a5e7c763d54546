open Helpers
module Graph = Ssreset_graph.Graph
module Daemon = Ssreset_sim.Daemon
module Table = Ssreset_expt.Table
module Workload = Ssreset_expt.Workload
module Runner = Ssreset_expt.Runner
module Experiments = Ssreset_expt.Experiments
module Spec = Ssreset_alliance.Spec

(* -------------------------------- Table -------------------------------- *)

let table_tests =
  [ test "make validates row widths" (fun () ->
        check_true "raises"
          (match
             Table.make ~title:"t" ~headers:[ "a"; "b" ] [ [ "only-one" ] ]
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    test "render aligns columns and includes notes" (fun () ->
        let t =
          Table.make ~title:"demo" ~headers:[ "col"; "value" ]
            ~notes:[ "a note" ]
            [ [ "x"; "1" ]; [ "longer"; "22" ] ]
        in
        let s = Table.render t in
        check_true "title" (Astring_like.contains s "demo");
        check_true "note" (Astring_like.contains s "note: a note");
        check_true "header" (Astring_like.contains s "col");
        check_true "padding" (Astring_like.contains s "x     "));
    test "cells and all_ok" (fun () ->
        check Alcotest.string "int" "42" (Table.cell_int 42);
        check Alcotest.string "float" "1.50" (Table.cell_float 1.5);
        check Alcotest.string "ok" "ok" (Table.cell_bool true);
        check Alcotest.string "fail" "FAIL" (Table.cell_bool false);
        let t =
          Table.make ~title:"t" ~headers:[ "a"; "ok" ]
            [ [ "x"; "ok" ]; [ "y"; "ok" ] ]
        in
        check_true "all ok" (Table.all_ok t ~col:1);
        let t2 =
          Table.make ~title:"t" ~headers:[ "a"; "ok" ]
            [ [ "x"; "ok" ]; [ "y"; "FAIL" ] ]
        in
        check_false "not all ok" (Table.all_ok t2 ~col:1));
    test "to_csv quotes the awkward cells" (fun () ->
        let t =
          Table.make ~title:"csv" ~headers:[ "name"; "value" ]
            ~notes:[ "notes are not data" ]
            [ [ "plain"; "1" ];
              [ "comma,here"; "2" ];
              [ "quote\"here"; "3" ];
              [ "line\nbreak"; "4" ] ]
        in
        let csv = Table.to_csv t in
        check Alcotest.string "csv"
          "name,value\nplain,1\n\"comma,here\",2\n\"quote\"\"here\",3\n\"line\nbreak\",4\n"
          csv);
    test "to_json round-trips through the parser" (fun () ->
        let module Json = Ssreset_obs.Json in
        let t =
          Table.make ~title:"json" ~headers:[ "a"; "b" ] ~notes:[ "n1" ]
            [ [ "x"; "1" ]; [ "y"; "2" ] ]
        in
        let json = Table.to_json t in
        let reparsed = Json.of_string_exn (Json.to_string json) in
        check_true "round-trip" (Json.equal json reparsed);
        check Alcotest.(option string) "title" (Some "json")
          (Option.bind (Json.member "title" json) Json.to_string_opt)) ]

(* ------------------------------- Workload ------------------------------ *)

let workload_tests =
  [ test "families build graphs of the requested size" (fun () ->
        List.iter
          (fun (family : Workload.family) ->
            let g = family.Workload.build ~seed:3 ~n:18 in
            check_true
              (family.Workload.family_name ^ " size")
              (abs (Graph.n g - 18) <= 6);
            check_true
              (family.Workload.family_name ^ " connected")
              (Graph.is_connected g))
          Workload.standard);
    test "deterministic families ignore the seed" (fun () ->
        let a = Workload.ring.Workload.build ~seed:1 ~n:12 in
        let b = Workload.ring.Workload.build ~seed:99 ~n:12 in
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "same" (Graph.edges a) (Graph.edges b));
    test "small_connected_graphs counts labeled connected graphs" (fun () ->
        (* 1 on 2 vertices, 4 on 3 vertices, 38 on 4 vertices *)
        check_int "n<=3" 5
          (List.length (Workload.small_connected_graphs ~max_n:3));
        check_int "n<=4" 43
          (List.length (Workload.small_connected_graphs ~max_n:4));
        List.iter
          (fun g -> check_true "connected" (Graph.is_connected g))
          (Workload.small_connected_graphs ~max_n:4)) ]

(* -------------------------------- Runner ------------------------------- *)

let runner_tests =
  [ test "daemon_by_name covers the registry and rejects strangers" (fun () ->
        (* every registry name resolves, and the registry still contains the
           historical zoo (parity with the pre-registry hardcoded lists) *)
        let names = Daemon.names () in
        List.iter (fun name -> ignore (Runner.daemon_by_name name)) names;
        List.iter
          (fun name -> check_true (name ^ " registered") (List.mem name names))
          [ "synchronous"; "central-random"; "central-first"; "central-last";
            "round-robin"; "distributed-random"; "locally-central";
            "adversarial"; "starve" ];
        check_int "no duplicate names"
          (List.length names)
          (List.length (List.sort_uniq compare names));
        List.iter
          (fun (name, (d : Daemon.t)) ->
            check_true (name ^ " fresh") (Daemon.by_name name <> None);
            ignore d)
          (Daemon.registry ());
        check_true "unknown"
          (match Runner.daemon_by_name "nope" with
          | exception Invalid_argument _ -> true
          | _ -> false));
    test "unison_composed reports a consistent observation" (fun () ->
        let g = Workload.ring.Workload.build ~seed:1 ~n:10 in
        let obs =
          Runner.run Runner.unison ~graph:g
            ~daemon:(Runner.daemon_by_name "distributed-random") ~seed:3
        in
        check_true "outcome" obs.Runner.outcome_ok;
        check_true "result" obs.Runner.result_ok;
        check_true "rounds bound" (obs.Runner.rounds <= 30);
        check_true "sdr <= total" (obs.Runner.sdr_moves <= obs.Runner.moves);
        check_true "segments bound"
          (match obs.Runner.segments with
          | Some s -> s <= 11
          | None -> false);
        check Alcotest.(option bool) "ar monotone" (Some true)
          obs.Runner.ar_monotone;
        check_true "wall clock measured" (obs.Runner.wall_s >= 0.));
    test "fga_bare checks Lemma 25 and 1-minimality" (fun () ->
        let g = Workload.complete.Workload.build ~seed:1 ~n:7 in
        let obs =
          Runner.run (Runner.alliance_bare Spec.global_powerful) ~graph:g
            ~daemon:(Runner.daemon_by_name "central-random") ~seed:4
        in
        check_true "outcome" obs.Runner.outcome_ok;
        check_true "result" obs.Runner.result_ok);
    test "tail_unison stabilizes and reports legitimacy" (fun () ->
        let g = Workload.path.Workload.build ~seed:1 ~n:9 in
        let obs =
          Runner.run Runner.tail_unison ~graph:g
            ~daemon:(Runner.daemon_by_name "synchronous") ~seed:5
        in
        check_true "outcome" obs.Runner.outcome_ok;
        check_true "result" obs.Runner.result_ok);
    test "coloring and MIS runners report silence" (fun () ->
        let g = Workload.sparse_random.Workload.build ~seed:2 ~n:10 in
        let col =
          Runner.run Runner.coloring ~graph:g
            ~daemon:(Runner.daemon_by_name "locally-central") ~seed:6
        in
        let mis =
          Runner.run Runner.mis ~graph:g
            ~daemon:(Runner.daemon_by_name "round-robin") ~seed:7
        in
        check_true "coloring" (col.Runner.outcome_ok && col.Runner.result_ok);
        check_true "mis" (mis.Runner.outcome_ok && mis.Runner.result_ok)) ]

(* ---------------------------- Runner pins ------------------------------ *)

(* Every system, run once bare and once streaming into a sink with step
   tracing, on one small graph x daemon x seed.  Each run contributes its
   observation, the per-type record counts of its stream and its summary
   record, all with the wall-clock fields removed; the lines must match
   [runner_pins.txt] exactly, so any change of behaviour in the runners
   shows up as a diff. *)

module Json = Ssreset_obs.Json
module Sink = Ssreset_obs.Sink

let rec strip_clock = function
  | Json.Obj kvs ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = "wall_s" || k = "steps_per_s" then None
             else Some (k, strip_clock v))
           kvs)
  | Json.List l -> Json.List (List.map strip_clock l)
  | j -> j

let pin_lines () =
  let graph = Workload.sparse_random.Workload.build ~seed:2 ~n:8 in
  List.concat_map
    (fun system ->
      let name = Runner.name system in
      let run ?sink () =
        Runner.run ?sink ~trace_steps:(Option.is_some sink) system ~graph
          ~daemon:(Runner.daemon_by_name "distributed-random") ~seed:3
      in
      let obs_line obs = Json.to_string (strip_clock (Runner.obs_json obs)) in
      let bare = run () in
      let path = Filename.temp_file "ssreset-pin" ".jsonl" in
      let sink = Sink.create path in
      let sunk = run ~sink () in
      Sink.close sink;
      let records = List.map Json.of_string_exn (read_lines path) in
      Sys.remove path;
      let type_of j = Option.bind (Json.member "type" j) Json.to_string_opt in
      let counts =
        List.map
          (fun ty ->
            let n = List.filter (fun j -> type_of j = Some ty) records in
            Printf.sprintf "%s=%d" ty (List.length n))
          [ "init"; "round"; "step"; "anomaly"; "summary" ]
      in
      let summary = List.find (fun j -> type_of j = Some "summary") records in
      [ Printf.sprintf "%s obs %s" name (obs_line bare);
        Printf.sprintf "%s sunk-obs %s" name (obs_line sunk);
        Printf.sprintf "%s records %s" name (String.concat " " counts);
        Printf.sprintf "%s summary %s" name
          (Json.to_string (strip_clock summary)) ])
    (Runner.systems ~spec:Spec.dominating_set @ [ Runner.unison_bare ])

let pin_tests =
  [ test "every system reproduces its pinned run" (fun () ->
        let expected = read_lines "runner_pins.txt" in
        let actual = pin_lines () in
        check_int "line count" (List.length expected) (List.length actual);
        List.iter2 (check Alcotest.string "pinned line") expected actual) ]

(* ------------------------------ Experiments ---------------------------- *)

let tiny_profile =
  { Experiments.sizes = [ 8 ];
    fga_sizes = [ 7 ];
    seeds = 1;
    bare_steps_factor = 25;
    jobs = 1 }

let last_col_ok table =
  let cols = List.length table.Table.headers in
  Table.all_ok table ~col:(cols - 1)

let experiment_tests =
  [ test "E12 verifies Property 1 and finds the (0,2) witness" (fun () ->
        let t = Experiments.e12 () in
        check_true "all ok" (last_col_ok t);
        (* fourth column: the custom (0,2) row must be strictly positive,
           the f >= g rows must be zero *)
        let row name =
          List.find (fun r -> String.equal (List.hd r) name) t.Table.rows
        in
        check Alcotest.string "domset zero" "0"
          (List.nth (row "dominating-set") 4);
        check_true "(0,2) positive"
          (int_of_string (List.nth (row "(0,2)-alliance") 4) > 0));
    test "E1-E3 pass on a tiny profile" (fun () ->
        List.iter
          (fun t -> check_true t.Table.title (last_col_ok t))
          (Experiments.e1_e2_e3 tiny_profile));
    test "E7 passes on a tiny profile" (fun () ->
        check_true "e7" (last_col_ok (Experiments.e7 tiny_profile)));
    test "E13 passes on a tiny profile" (fun () ->
        check_true "e13" (last_col_ok (Experiments.e13 tiny_profile)));
    test "all experiments are registered with stable ids" (fun () ->
        check
          (Alcotest.list Alcotest.string)
          "ids"
          [ "E1-E3"; "E4-E5"; "E6"; "E7"; "E8"; "E9-E10"; "E11"; "E12";
            "E13"; "E14"; "E15"; "E16" ]
          (List.map fst (Experiments.all tiny_profile))) ]

let () =
  Alcotest.run "expt"
    [ ("table", table_tests);
      ("workload", workload_tests);
      ("runner", runner_tests);
      ("pins", pin_tests);
      ("experiments", experiment_tests) ]
