open Helpers
module Json = Ssreset_obs.Json
module Metrics = Ssreset_obs.Metrics
module Obs = Ssreset_obs.Obs
module Sink = Ssreset_obs.Sink

(* --------------------------------- Json --------------------------------- *)

let roundtrip json =
  match Json.of_string (Json.to_string json) with
  | Ok j -> j
  | Error msg -> Alcotest.failf "re-parse failed: %s" msg

let json_tests =
  [ test "scalars round-trip exactly" (fun () ->
        List.iter
          (fun j -> check_true (Json.to_string j) (Json.equal j (roundtrip j)))
          [ Json.Null; Json.Bool true; Json.Bool false; Json.Int 0;
            Json.Int (-42); Json.Int max_int; Json.Float 0.5;
            Json.Float 1e-9; Json.Float 123456789.25; Json.String "";
            Json.String "héllo \"world\"\n\t\\"; Json.List [];
            Json.Obj [] ]);
    test "ints stay ints, floats stay floats" (fun () ->
        check_true "int" (roundtrip (Json.Int 7) = Json.Int 7);
        check_true "float"
          (match roundtrip (Json.Float 7.5) with
          | Json.Float f -> f = 7.5
          | _ -> false);
        (* integral floats must not collapse into Int on re-parse *)
        check_true "integral float"
          (match roundtrip (Json.Float 3.0) with
          | Json.Float f -> f = 3.0
          | _ -> false));
    test "non-finite floats encode as null" (fun () ->
        check Alcotest.string "nan" "null" (Json.to_string (Json.Float nan));
        check Alcotest.string "inf" "null"
          (Json.to_string (Json.Float infinity)));
    test "nested structures round-trip with field order" (fun () ->
        let j =
          Json.Obj
            [ ("b", Json.List [ Json.Int 1; Json.Null; Json.String "x" ]);
              ("a", Json.Obj [ ("nested", Json.Bool false) ]) ]
        in
        check_true "equal" (Json.equal j (roundtrip j));
        check Alcotest.string "order"
          {|{"b":[1,null,"x"],"a":{"nested":false}}|} (Json.to_string j));
    test "parser accepts whitespace and escapes" (fun () ->
        let j = Json.of_string_exn {|  { "k" : [ 1 , 2.5, "A\n" ] }  |} in
        check Alcotest.(option string) "escape" (Some "A\n")
          (match Json.member "k" j with
          | Some (Json.List [ _; _; s ]) -> Json.to_string_opt s
          | _ -> None));
    test "parser rejects garbage" (fun () ->
        List.iter
          (fun s ->
            check_true s
              (match Json.of_string s with Error _ -> true | Ok _ -> false))
          [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated" ]);
    test "to_string_hum parses back to the same value" (fun () ->
        let j =
          Json.Obj
            [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]);
              ("s", Json.String "v") ]
        in
        check_true "hum round-trip"
          (Json.equal j (Json.of_string_exn (Json.to_string_hum j))));
    test "accessors" (fun () ->
        let j = Json.Obj [ ("n", Json.Int 3); ("f", Json.Float 1.5) ] in
        check Alcotest.(option int) "int" (Some 3)
          (Option.bind (Json.member "n" j) Json.to_int_opt);
        check Alcotest.(option (float 0.0)) "widen" (Some 3.0)
          (Option.bind (Json.member "n" j) Json.to_float_opt);
        check Alcotest.(option int) "missing" None
          (Option.bind (Json.member "zz" j) Json.to_int_opt)) ]

(* -------------------------------- Metrics ------------------------------- *)

let metrics_tests =
  [ test "counters accumulate and re-register by name" (fun () ->
        let m = Metrics.create () in
        let c = Metrics.counter m "moves" in
        Metrics.incr c;
        Metrics.add c 4;
        let again = Metrics.counter m "moves" in
        Metrics.incr again;
        check_int "value" 6 (Metrics.counter_value c));
    test "gauges are last-write-wins" (fun () ->
        let m = Metrics.create () in
        let g = Metrics.gauge m "wall" in
        Metrics.set g 1.0;
        Metrics.set g 2.5;
        check (Alcotest.float 0.0) "value" 2.5 (Metrics.gauge_value g));
    test "histogram buckets, overflow and quantile" (fun () ->
        let m = Metrics.create () in
        let h = Metrics.histogram m "h" ~buckets:[| 1.; 2.; 4. |] in
        List.iter (Metrics.observe h) [ 1.; 1.; 2.; 3.; 100. ];
        check_int "count" 5 (Metrics.histogram_count h);
        check (Alcotest.float 0.0001) "sum" 107. (Metrics.histogram_sum h);
        check (Alcotest.float 0.0001) "median bucket" 2.
          (Metrics.histogram_quantile h ~p:50.);
        check_true "invalid buckets"
          (match Metrics.histogram m "bad" ~buckets:[| 2.; 1. |] with
          | exception Invalid_argument _ -> true
          | _ -> false));
    test "pow2_buckets covers the limit" (fun () ->
        let b = Metrics.pow2_buckets ~limit:5. in
        check_true "starts at 1" (b.(0) = 1.);
        check_true "last >= limit" (b.(Array.length b - 1) >= 5.);
        check_true "strictly increasing"
          (Array.for_all (fun x -> x > 0.) b));
    test "to_json snapshot parses and keeps exact counters" (fun () ->
        let m = Metrics.create () in
        Metrics.add (Metrics.counter m "big") 1_000_000_007;
        Metrics.set (Metrics.gauge m "g") 0.25;
        ignore (Metrics.histogram m "h" ~buckets:[| 1.; 2. |]);
        let j = roundtrip (Metrics.to_json m) in
        check Alcotest.(option int) "counter exact" (Some 1_000_000_007)
          (Option.bind (Json.member "counters" j) (fun c ->
               Option.bind (Json.member "big" c) Json.to_int_opt))) ]

(* ---------------------------------- Obs --------------------------------- *)

let obs_tests =
  [ test "combine calls probes in list order on every step" (fun () ->
        let log = ref [] in
        let probe tag : int Obs.t =
         fun ~step ~moved:_ _cfg -> log := (tag, step) :: !log
        in
        let o = Obs.combine [ probe "a"; probe "b"; probe "c" ] in
        o ~step:0 ~moved:[] [||];
        o ~step:1 ~moved:[] [||];
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
          "order"
          [ ("a", 0); ("b", 0); ("c", 0); ("a", 1); ("b", 1); ("c", 1) ]
          (List.rev !log));
    test "combine [] is nop" (fun () ->
        (Obs.combine [] : int Obs.t) ~step:0 ~moved:[ (0, "r") ] [||]);
    test "move_counter filters by rule name" (fun () ->
        let total, o1 = Obs.move_counter () in
        let sdr, o2 =
          Obs.move_counter
            ~matches:(fun r -> String.length r >= 4 && String.sub r 0 4 = "SDR-")
            ()
        in
        let o = Obs.combine [ o1; o2 ] in
        o ~step:0 ~moved:[ (0, "SDR-C"); (1, "U-inc") ] [||];
        o ~step:1 ~moved:[ (2, "SDR-RF") ] [||];
        check_int "total" 3 !total;
        check_int "sdr" 2 !sdr);
    test "per_process_moves attributes moves" (fun () ->
        let counts, o = Obs.per_process_moves ~n:3 () in
        o ~step:0 ~moved:[ (0, "r"); (2, "r") ] [||];
        o ~step:1 ~moved:[ (2, "r") ] [||];
        check
          (Alcotest.array Alcotest.int)
          "counts" [| 1; 0; 2 |] counts);
    test "shrinking detects a growing set" (fun () ->
        let measure (cfg : int array) =
          Array.to_list (Array.mapi (fun i x -> (i, x)) cfg)
          |> List.filter_map (fun (i, x) -> if x > 0 then Some i else None)
        in
        let ok, o = Obs.shrinking ~measure ~init:(measure [| 1; 1; 0 |]) in
        o ~step:0 ~moved:[] [| 1; 0; 0 |];
        check_true "still monotone" !ok;
        o ~step:1 ~moved:[] [| 1; 0; 1 |];
        check_false "grew" !ok);
    test "sample thins the steps" (fun () ->
        let hits = ref 0 in
        let o =
          Obs.sample ~every:3 (fun ~step:_ ~moved:_ (_ : int array) ->
              incr hits)
        in
        for s = 0 to 8 do
          o ~step:s ~moved:[] [||]
        done;
        check_int "hits" 3 !hits) ]

(* --------------------------------- Sink --------------------------------- *)

let sink_tests =
  [ test "manifest and summary round-trip through the parser" (fun () ->
        let m =
          Sink.manifest ~system:"unison" ~family:"ring" ~n:16 ~m:16 ~seed:3
            ~daemon:"synchronous" ()
        in
        let j = roundtrip m in
        check Alcotest.(option string) "type" (Some "manifest")
          (Option.bind (Json.member "type" j) Json.to_string_opt);
        check Alcotest.(option int) "schema" (Some Sink.schema_version)
          (Option.bind (Json.member "schema" j) Json.to_int_opt);
        check Alcotest.(option int) "n" (Some 16)
          (Option.bind (Json.member "n" j) Json.to_int_opt);
        let s =
          roundtrip
            (Sink.summary ~outcome:"stabilized" ~rounds:4 ~steps:100
               ~moves:250 ~wall_s:0.5 ())
        in
        check Alcotest.(option (float 0.0001)) "steps_per_s" (Some 200.)
          (Option.bind (Json.member "steps_per_s" s) Json.to_float_opt));
    test "file sink writes one parseable object per line" (fun () ->
        let path = Filename.temp_file "ssreset-sink" ".jsonl" in
        let sink = Sink.create path in
        Sink.write sink
          (Sink.manifest ~system:"s" ~family:"f" ~n:4 ~m:3 ~seed:1
             ~daemon:"d" ());
        Sink.write sink (Sink.round_record ~round:1 ~steps:2 ~moves:3 ());
        Sink.write sink
          (Sink.summary ~outcome:"terminal" ~rounds:1 ~steps:2 ~moves:3
             ~wall_s:0.0 ());
        Sink.close sink;
        let lines = read_lines path in
        Sys.remove path;
        check_int "three records" 3 (List.length lines);
        let types =
          List.map
            (fun line ->
              Option.bind
                (Json.member "type" (Json.of_string_exn line))
                Json.to_string_opt)
            lines
        in
        check
          Alcotest.(list (option string))
          "record types"
          [ Some "manifest"; Some "round"; Some "summary" ]
          types) ]

(* ------------------------- Runner integration --------------------------- *)

module Runner = Ssreset_expt.Runner
module Workload = Ssreset_expt.Workload

let integration_tests =
  [ test "a sunk run streams manifest-free rounds plus a summary" (fun () ->
        let path = Filename.temp_file "ssreset-run" ".jsonl" in
        let graph = Workload.ring.Workload.build ~seed:1 ~n:10 in
        let sink = Sink.create path in
        let obs =
          Runner.run ~sink Runner.unison ~graph
            ~daemon:(Runner.daemon_by_name "synchronous")
            ~seed:3
        in
        Sink.close sink;
        let records = List.map Json.of_string_exn (read_lines path) in
        Sys.remove path;
        let of_type ty =
          List.filter
            (fun j ->
              Option.bind (Json.member "type" j) Json.to_string_opt = Some ty)
            records
        in
        check_int "one summary" 1 (List.length (of_type "summary"));
        check_true "has rounds" (List.length (of_type "round") > 0);
        let summary = List.hd (of_type "summary") in
        check Alcotest.(option int) "summary steps" (Some obs.Runner.steps)
          (Option.bind (Json.member "steps" summary) Json.to_int_opt);
        check Alcotest.(option int) "summary moves" (Some obs.Runner.moves)
          (Option.bind (Json.member "moves" summary) Json.to_int_opt));
    test "telemetry does not change the measured run" (fun () ->
        let graph = Workload.ring.Workload.build ~seed:1 ~n:10 in
        let run ?sink () =
          Runner.run ?sink Runner.unison ~graph
            ~daemon:(Runner.daemon_by_name "distributed-random")
            ~seed:9
        in
        let bare = run () in
        let path = Filename.temp_file "ssreset-run" ".jsonl" in
        let sink = Sink.create path in
        let sunk = run ~sink () in
        Sink.close sink;
        Sys.remove path;
        check_int "moves" bare.Runner.moves sunk.Runner.moves;
        check_int "rounds" bare.Runner.rounds sunk.Runner.rounds;
        check_int "steps" bare.Runner.steps sunk.Runner.steps;
        check Alcotest.(option int) "segments" bare.Runner.segments
          sunk.Runner.segments);
    test "obs_json reports nulls for unmeasured fields" (fun () ->
        let graph = Workload.complete.Workload.build ~seed:1 ~n:6 in
        let obs =
          Runner.run (Runner.alliance_bare Ssreset_alliance.Spec.dominating_set)
            ~graph ~daemon:(Runner.daemon_by_name "central-random") ~seed:2
        in
        check Alcotest.(option bool) "bare segments unmeasured" None
          (Option.map (fun _ -> true) obs.Runner.segments);
        let j = roundtrip (Runner.obs_json obs) in
        check_true "segments null"
          (Json.member "segments" j = Some Json.Null)) ]

let () =
  Alcotest.run "obs"
    [ ("json", json_tests);
      ("metrics", metrics_tests);
      ("obs", obs_tests);
      ("sink", sink_tests);
      ("integration", integration_tests) ]
