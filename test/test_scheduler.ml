(* Engine oracle and pool determinism.

   [Engine.run] (dirty-set refresh of the movers' neighborhoods, O(movers·Δ)
   neutralization check) must be bit-identical to a full-rescan oracle
   written straight from the paper's definitions: same outcome, step, move
   and round counts, same per-rule and per-process tallies, same final
   configuration — on every registered algorithm, under every daemon of the
   zoo, across many seeds.  And Pool.map_* must return the same values (and
   surface the same error) for any jobs count. *)

module Engine = Ssreset_sim.Engine
module Algorithm = Ssreset_sim.Algorithm
module Daemon = Ssreset_sim.Daemon
module Pool = Ssreset_sim.Pool
module Graph = Ssreset_graph.Graph
module Gen = Ssreset_graph.Gen
module Registry = Ssreset_check.Registry
module Finite = Ssreset_check.Finite
module Experiments = Ssreset_expt.Experiments

(* ----------------------- full-rescan oracle --------------------------- *)

(* §2.2–2.4 with nothing incremental.  Every step goes through
   [Engine.step], which rebuilds the enabled table from scratch, and
   rounds are counted from the full before/after enabled sets: a round
   starts with [pending] = the processes enabled in its first
   configuration; a process leaves [pending] when it moves or is
   neutralized (enabled before a step, disabled after it, without
   moving); the round is complete when [pending] is empty.  [rounds]
   counts the final partial round if it holds a step, as [Engine.run]
   documents. *)
let oracle_run ~algorithm ~graph ~daemon ~rng ~max_steps cfg0 =
  let n = Graph.n graph in
  let enabled cfg u =
    Algorithm.is_enabled algorithm (Algorithm.view graph cfg u)
  in
  let enabled_set cfg = List.filter (enabled cfg) (List.init n Fun.id) in
  let moves_per_process = Array.make n 0 in
  let per_rule = Hashtbl.create 8 in
  let rec go cfg ~steps ~moves ~rounds ~pending ~in_round =
    let finish outcome =
      { Engine.outcome;
        final = cfg;
        steps;
        moves;
        moves_per_process;
        moves_per_rule =
          Hashtbl.fold (fun k v l -> (k, v) :: l) per_rule []
          |> List.sort compare;
        rounds = (if in_round then rounds + 1 else rounds);
        wall_s = 0. }
    in
    let before = ref [] in
    if steps >= max_steps then finish Engine.Step_limit
    else
      match
        Engine.step ~rng ~on_enabled:(fun l -> before := l) ~algorithm ~graph
          ~daemon ~step_index:steps cfg
      with
      | None -> finish Engine.Terminal
      | Some (next, moved) ->
          List.iter
            (fun (u, rule) ->
              moves_per_process.(u) <- moves_per_process.(u) + 1;
              Hashtbl.replace per_rule rule
                (1 + Option.value ~default:0 (Hashtbl.find_opt per_rule rule)))
            moved;
          let moved_or_neutralized u =
            List.mem_assoc u moved
            || (List.mem u !before && not (enabled next u))
          in
          let pending =
            List.filter (fun u -> not (moved_or_neutralized u)) pending
          in
          let steps = steps + 1 and moves = moves + List.length moved in
          if pending = [] then
            go next ~steps ~moves ~rounds:(rounds + 1)
              ~pending:(enabled_set next) ~in_round:false
          else go next ~steps ~moves ~rounds ~pending ~in_round:true
  in
  go cfg0 ~steps:0 ~moves:0 ~rounds:0 ~pending:(enabled_set cfg0)
    ~in_round:false

let seeds = 20
let graphs () = [ Gen.ring 5; Gen.erdos_renyi (Random.State.make [| 9 |]) 6 0.4 ]

(* Compare every field of the two results except wall_s. *)
let same_result equal (a : _ Engine.result) (b : _ Engine.result) =
  a.Engine.outcome = b.Engine.outcome
  && a.Engine.steps = b.Engine.steps
  && a.Engine.moves = b.Engine.moves
  && a.Engine.rounds = b.Engine.rounds
  && a.Engine.moves_per_rule = b.Engine.moves_per_rule
  && a.Engine.moves_per_process = b.Engine.moves_per_process
  && Array.length a.Engine.final = Array.length b.Engine.final
  && Array.for_all2 equal a.Engine.final b.Engine.final

(* Fresh daemon per run: round-robin carries a cursor, so a shared daemon
   value would leak state from the oracle run into the engine run. *)
let fresh_daemon name = List.assoc name (Daemon.registry ())

let oracle_case (entry : Registry.entry) =
  Alcotest.test_case
    (Printf.sprintf "%s: full ≡ incremental (every daemon, %d seeds)"
       entry.Registry.name seeds)
    `Quick
    (fun () ->
      List.iter
        (fun g ->
          if Graph.n g >= entry.Registry.min_n then begin
            let module F = (val entry.Registry.instance g : Finite.FINITE) in
            let random_cfg rng =
              Array.init (Graph.n F.graph) (fun u ->
                  let dom = F.domain u in
                  List.nth dom (Random.State.int rng (List.length dom)))
            in
            let max_steps = 2_000 in
            List.iter
              (fun daemon_name ->
                for seed = 1 to seeds do
                  let cfg = random_cfg (Random.State.make [| seed; 77 |]) in
                  let oracle =
                    oracle_run ~algorithm:F.algorithm ~graph:F.graph
                      ~daemon:(fresh_daemon daemon_name)
                      ~rng:(Random.State.make [| seed |])
                      ~max_steps (Array.copy cfg)
                  in
                  let run =
                    Engine.run
                      ~rng:(Random.State.make [| seed |])
                      ~max_steps ~algorithm:F.algorithm ~graph:F.graph
                      ~daemon:(fresh_daemon daemon_name) (Array.copy cfg)
                  in
                  if not (same_result F.algorithm.Algorithm.equal oracle run)
                  then
                    Alcotest.failf
                      "%s under %s, seed %d: run diverged from the oracle \
                       (oracle: %d steps %d moves %d rounds; run: %d steps \
                       %d moves %d rounds)"
                      F.name daemon_name seed oracle.Engine.steps
                      oracle.Engine.moves oracle.Engine.rounds
                      run.Engine.steps run.Engine.moves run.Engine.rounds
                done)
              (Daemon.names ())
          end)
        (graphs ()))

(* Regression: rng-less runs used to share a module-level Random.State, so a
   run's result depended on what other runs executed before it.  Now each
   rng-less run derives a fresh state from ?seed, so interleaving other work
   must not change anything. *)
let rngless_runs_are_order_independent () =
  let entry = List.hd Registry.entries in
  let g = Gen.ring 5 in
  let module F = (val entry.Registry.instance g : Finite.FINITE) in
  let cfg =
    Array.init (Graph.n F.graph) (fun u -> List.hd (F.domain u))
  in
  let go () =
    Engine.run ~max_steps:500 ~algorithm:F.algorithm ~graph:F.graph
      ~daemon:(fresh_daemon "distributed-random")
      (Array.copy cfg)
  in
  let isolated = go () in
  (* interleave two other rng-less runs, then repeat *)
  ignore (Engine.run ~seed:99 ~max_steps:100 ~algorithm:F.algorithm
            ~graph:F.graph ~daemon:(fresh_daemon "central-random")
            (Array.copy cfg));
  ignore (Engine.step ~algorithm:F.algorithm ~graph:F.graph
            ~daemon:(fresh_daemon "central-random") ~step_index:0
            (Array.copy cfg));
  let interleaved = go () in
  Alcotest.(check bool) "same result regardless of surrounding runs" true
    (same_result F.algorithm.Algorithm.equal isolated interleaved)

let engine_tests =
  List.map oracle_case Registry.entries
  @ [ Alcotest.test_case "rng-less runs are order-independent (?seed, no \
                          shared state)"
        `Quick rngless_runs_are_order_independent ]

(* ------------------------------- pool ---------------------------------- *)

let jobs_variants = [ 1; 2; 4 ]

let pool_map_identity () =
  let xs = Array.init 37 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expected = Array.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "map_array jobs=%d" jobs)
        expected
        (Pool.map_array ~jobs f xs))
    jobs_variants;
  (* more workers than elements *)
  Alcotest.(check (array int)) "jobs > n" expected (Pool.map_array ~jobs:64 f xs)

let pool_error_deterministic () =
  let xs = Array.init 16 (fun i -> i) in
  let f x = if x = 3 || x = 7 then failwith (string_of_int x) else x in
  List.iter
    (fun jobs ->
      match Pool.map_array ~jobs f xs with
      | _ -> Alcotest.failf "jobs=%d: expected Job_failed" jobs
      | exception Pool.Job_failed { index; exn = Failure msg; _ } ->
          (* smallest failing index wins, whatever the domain interleaving *)
          Alcotest.(check int)
            (Printf.sprintf "failing index under jobs=%d" jobs)
            3 index;
          Alcotest.(check string) "carried exception" "3" msg
      | exception e -> raise e)
    jobs_variants

let pool_map_list () =
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "map_list jobs=%d" jobs)
        [ 2; 4; 6; 8; 10 ]
        (Pool.map_list ~jobs (fun x -> 2 * x) [ 1; 2; 3; 4; 5 ]))
    jobs_variants

(* The real consumer: an experiment sweep must produce identical tables for
   any jobs count. *)
let tiny_profile jobs =
  { Experiments.sizes = [ 8 ]; fga_sizes = [ 7 ]; seeds = 1;
    bare_steps_factor = 25; jobs }

let grid_tables_jobs_invariant () =
  let tables jobs = Experiments.e4_e5 (tiny_profile jobs) in
  let reference = tables 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "e4_e5 tables identical under jobs=%d" jobs)
        true
        (tables jobs = reference))
    [ 2; 4 ]

let pool_tests =
  [ Alcotest.test_case "map_array: order preserved for jobs ∈ {1,2,4,64}"
      `Quick pool_map_identity;
    Alcotest.test_case "map_array: smallest-index error wins deterministically"
      `Quick pool_error_deterministic;
    Alcotest.test_case "map_list: order preserved" `Quick pool_map_list;
    Alcotest.test_case "experiment grid: tables jobs-invariant" `Quick
      grid_tables_jobs_invariant ]

let () =
  Alcotest.run "scheduler"
    [ ("full-vs-incremental", engine_tests); ("pool", pool_tests) ]
