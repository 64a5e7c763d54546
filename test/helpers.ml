(* Shared helpers for the test suites. *)

module Graph = Ssreset_graph.Graph
module Gen = Ssreset_graph.Gen
module Metrics = Ssreset_graph.Metrics
module Algorithm = Ssreset_sim.Algorithm
module Daemon = Ssreset_sim.Daemon
module Engine = Ssreset_sim.Engine
module Fault = Ssreset_sim.Fault
module Trace = Ssreset_sim.Trace
module Sdr = Ssreset_core.Sdr

let rng seed = Random.State.make [| seed |]

let check = Alcotest.check
let check_int msg = check Alcotest.int msg
let check_bool msg = check Alcotest.bool msg
let check_true msg b = check_bool msg true b
let check_false msg b = check_bool msg false b

let test name f = Alcotest.test_case name `Quick f

(* The nonblank lines of a file: a recorded JSONL stream or a pin file. *)
let read_lines path =
  match Ssreset_obs.Jsonl.load_file path with
  | Ok contents -> List.map snd (Ssreset_obs.Jsonl.lines contents)
  | Error msg -> Alcotest.fail msg

(* A small deterministic zoo of connected graphs exercising extreme shapes. *)
let graph_zoo () =
  [ ("ring9", Gen.ring 9);
    ("path7", Gen.path 7);
    ("star8", Gen.star 8);
    ("complete6", Gen.complete 6);
    ("grid3x4", Gen.grid 3 4);
    ("lollipop", Gen.lollipop 4 4);
    ("er12", Gen.erdos_renyi (rng 12) 12 0.25);
    ("tree10", Gen.random_tree (rng 10) 10) ]

(* Exhaustive daemon list (fresh round-robin cursor per call). *)
let daemons () = Daemon.all_standard ()

(* Run [algorithm] from [cfg] and return the result. *)
let run ?(seed = 1) ?(max_steps = 5_000_000) ?stop ~algorithm ~graph ~daemon
    cfg =
  Engine.run ~rng:(rng seed) ~max_steps ?stop ~algorithm ~graph ~daemon cfg

(* Check a step-closure property on a recorded trace: [prop u view] must be
   preserved by every step for every process. *)
let closed_along_trace ~graph ~prop trace =
  List.for_all
    (fun (before, after, _moved) ->
      let n = Graph.n graph in
      let rec ok u =
        u >= n
        || (((not (prop u (Algorithm.view graph before u)))
            || prop u (Algorithm.view graph after u))
           && ok (u + 1))
      in
      ok 0)
    (Trace.steps_pairs trace)

(* Sequence membership in the SDR per-segment language of Theorem 4:
   (C + ε)(RB + R + ε)(RF + ε), ignoring non-SDR rules (Corollary 3 allows
   arbitrary input-rule words between C and the broadcast rules). *)
let segment_language_ok names =
  let sdr_only =
    List.filter
      (fun name ->
        String.length name >= 4 && String.equal (String.sub name 0 4) "SDR-")
      names
  in
  match sdr_only with
  | [] | [ _ ] -> (
      match sdr_only with
      | [ x ] -> List.mem x [ "SDR-C"; "SDR-RB"; "SDR-R"; "SDR-RF" ]
      | _ -> true)
  | [ a; b ] ->
      (String.equal a "SDR-C" && List.mem b [ "SDR-RB"; "SDR-R"; "SDR-RF" ])
      || (List.mem a [ "SDR-RB"; "SDR-R" ] && String.equal b "SDR-RF")
  | [ a; b; c ] ->
      String.equal a "SDR-C"
      && List.mem b [ "SDR-RB"; "SDR-R" ]
      && String.equal c "SDR-RF"
  | _ -> false
