(* One iteration of the flat-engine stabilization benchmark.

     bench.exe WORKLOAD SEED SUB MODE      MODE = plain | traced

   Builds the workload's input from (SEED, SUB), runs the flat engine on it once
   and prints one JSON object: the run's outputs (outcome, counters,
   digest) for the caller's correctness checks, the set-up / run / digest
   spans timed around the public calls, and in [traced] mode the
   per-layer numbers read from the profiler the engine exposes.  Every
   timing is taken here, around calls into the library; nothing under
   lib/ is instrumented for this benchmark.

   One process runs one iteration, so [Gc.quick_stat]'s top_heap_words is
   the peak of this iteration alone: an earlier iteration cannot inflate
   it.  perfbench/run.py repeats iterations, checks them and reports
   medians. *)

module Csr = Ssreset_graph.Csr
module Flat = Ssreset_flat.Flat
module Progs = Ssreset_flat.Progs
module Prof = Ssreset_obs.Prof
module Metrics = Ssreset_obs.Metrics
module Histogram = Ssreset_obs.Histogram
module Json = Ssreset_obs.Json

type graph = Ring | Regular of int  (* average degree k *)
type init = Faults of int  (* corrupted nodes *) | Arbitrary

type workload = {
  name : string;
  n : int;
  graph : graph;
  init : init;
  daemon : Flat.daemon;
  parts : int;  (* 1: sequential [Flat.run]; > 1: [Flat.run_partitioned] *)
  budget : int option;  (* fixed step budget; [None] runs to stabilization *)
}

(* Sizes are scaled so one iteration takes 0.3 to 0.9 s on a 2-core x86
   VM, which lets a 30 s run take a median over 20 to 80 inputs.  The
   central workload keeps n = 10^5, where mover selection (O(n/64) per
   step) dominates its loop.  The ring workloads corrupt 5% of the
   nodes. *)
let ring_n = 8192
let central_n = 100_000
let regular_n = 20_000

let workloads =
  [
    {
      name = "ring-faults-sync";
      n = ring_n;
      graph = Ring;
      init = Faults (ring_n / 20);
      daemon = Flat.Synchronous;
      parts = 1;
      budget = None;
    };
    {
      name = "ring-faults-central";
      n = central_n;
      graph = Ring;
      init = Faults (central_n / 20);
      daemon = Flat.Central_random;
      parts = 1;
      budget = Some 50_000;
    };
    {
      name = "regular-arbitrary-sync";
      n = regular_n;
      graph = Regular 6;
      init = Arbitrary;
      daemon = Flat.Synchronous;
      parts = 1;
      budget = None;
    };
    {
      name = "ring-faults-sync-p2";
      n = ring_n;
      graph = Ring;
      init = Faults (ring_n / 20);
      daemon = Flat.Synchronous;
      parts = 2;
      budget = None;
    };
  ]

let secs ns = float_of_int ns /. 1e9

let outcome (o : Ssreset_sim.Engine.outcome) =
  match o with
  | Ssreset_sim.Engine.Stabilized -> "stabilized"
  | Ssreset_sim.Engine.Terminal -> "terminal"
  | Ssreset_sim.Engine.Step_limit -> "step-limit"

(* Nearest-rank percentile of an int array (sorts it in place). *)
let percentile a p =
  let len = Array.length a in
  if len = 0 then 0
  else begin
    Array.sort compare a;
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int len)) in
    a.(max 0 (min (len - 1) (k - 1)))
  end

(* Growable int buffer for per-step samples. *)
type samples = { mutable a : int array; mutable len : int }

let samples () = { a = Array.make 1024 0; len = 0 }

let push s v =
  if s.len = Array.length s.a then begin
    let b = Array.make (2 * s.len) 0 in
    Array.blit s.a 0 b 0 s.len;
    s.a <- b
  end;
  s.a.(s.len) <- v;
  s.len <- s.len + 1

let contents s = Array.sub s.a 0 s.len

(* Step shape from per-step clock stamps: the gaps between consecutive
   stamps are step durations (the first stamp also covers the initial
   scan, so it only opens the first gap). *)
let step_shape stamps movers =
  let st = contents stamps in
  let gaps =
    if Array.length st < 2 then [||]
    else Array.init (Array.length st - 1) (fun i -> st.(i + 1) - st.(i))
  in
  let ms ns = float_of_int ns /. 1e6 in
  let mv = contents movers in
  [
    ("flat.step_ms_p50", Json.Float (ms (percentile gaps 50.)));
    ("flat.step_ms_p90", Json.Float (ms (percentile gaps 90.)));
    ("flat.movers_per_step_p50", Json.Int (percentile mv 50.));
  ]

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Per-layer numbers of one profiled run.  Shares are of the wall time the
   phases tile: wall for the sequential loop, parts × wall for the
   partitioned one (each worker's laps plus its barrier waits tile the
   team's lifetime), the denominator `prof report --check` uses too. *)
let layers pr (w : workload) (r : Flat.result) ~run_ns =
  let m = Prof.metrics pr in
  let counter name = Metrics.counter_value (Metrics.counter m name) in
  let phase name = Prof.timer_total_ns (Prof.timer pr ("phase." ^ name)) in
  let phases =
    if w.parts = 1 then [ "scan"; "select"; "apply"; "refresh"; "callbacks" ]
    else [ "init"; "compute"; "write"; "refresh"; "barrier"; "replay"; "callbacks" ]
  in
  let attributed = List.fold_left (fun acc p -> acc + phase p) 0 phases in
  let tiled = w.parts * run_ns in
  let share name = ratio (phase name) tiled in
  let evals = counter "sched.evals" and touched = counter "sched.touched" in
  let common =
    [
      ("coverage", Json.Float (ratio attributed tiled));
      ("flat.refresh_share", Json.Float (share "refresh"));
      ("flat.ns_per_eval", Json.Float (ratio (phase "refresh") evals));
      ("flat.evals_per_move", Json.Float (ratio evals r.Flat.moves));
      ("flat.touches_per_move", Json.Float (ratio touched r.Flat.moves));
      ("flat.dedup_hit_ratio", Json.Float (ratio (counter "sched.dedup_hits") touched));
    ]
  in
  if w.parts = 1 then
    (* No team, no barrier, no replay: the pool figures read 0. *)
    common
    @ [
        ("flat.scan_share", Json.Float (share "scan"));
        ("flat.select_share", Json.Float (share "select"));
        ("flat.select_ns_per_step", Json.Float (ratio (phase "select") r.Flat.steps));
        ("flat.apply_share", Json.Float (share "apply"));
        ("flat.apply_ns_per_move", Json.Float (ratio (phase "apply") r.Flat.moves));
        ("flat.compute_share", Json.Float 0.);
        ("flat.replay_s", Json.Float 0.);
        ("pool.barrier_share", Json.Float 0.);
        ("pool.barrier_wait_p90_ms", Json.Float 0.);
        ("pool.worker_imbalance", Json.Float 0.);
      ]
  else begin
    (* The partitioned loop has no selection phase (every enabled node
       moves); its initial scan is phase.init and its write-back
       phase.write. *)
    let gauge name = Metrics.gauge_value (Metrics.gauge m name) in
    let busy = List.init w.parts (fun d -> gauge (Printf.sprintf "pool.worker%d.busy_s" d)) in
    let mean = List.fold_left ( +. ) 0. busy /. float_of_int w.parts in
    let worst = List.fold_left Float.max 0. busy in
    let barrier = Prof.timer_hist (Prof.timer pr "phase.barrier") in
    common
    @ [
        ("flat.scan_share", Json.Float (share "init"));
        ("flat.select_share", Json.Float 0.);
        ("flat.select_ns_per_step", Json.Float 0.);
        ("flat.apply_share", Json.Float (share "write"));
        ("flat.apply_ns_per_move", Json.Float (ratio (phase "write") r.Flat.moves));
        ("flat.compute_share", Json.Float (share "compute"));
        ("flat.replay_s", Json.Float (secs (phase "replay")));
        ("pool.barrier_share", Json.Float (share "barrier"));
        ("pool.barrier_wait_p90_ms", Json.Float (Histogram.percentile barrier ~p:90. /. 1e6));
        ("pool.worker_imbalance", Json.Float (if mean > 0. then (worst /. mean) -. 1. else 0.));
      ]
  end

(* The workload's input for (seed, sub): sub-input [sub] of a run is its
   [sub]-th iteration, so a run averages over many inputs of one
   distribution while the same seed still gives the same inputs.  The
   graph, fault-injection and daemon RNGs are separate streams. *)
let rng ~seed ~sub tag = Random.State.make [| seed; sub; tag |]

type input = {
  prog : Flat.prog;
  csr_ns : int;
  compile_ns : int;
  init_ns : int;
}

let build_input (w : workload) ~seed ~sub =
  let entry = Option.get (Progs.find "unison-sdr") in
  let t0 = Prof.now_ns () in
  let csr =
    match w.graph with
    | Ring -> Csr.ring w.n
    | Regular k -> Csr.random_regular_ish (rng ~seed ~sub 1) w.n k
  in
  let t1 = Prof.now_ns () in
  let prog = Progs.build entry csr in
  let t2 = Prof.now_ns () in
  Progs.init_ground prog;
  (match w.init with
  | Faults k -> Progs.perturb prog ~rng:(rng ~seed ~sub 2) k
  | Arbitrary -> Progs.init_random prog ~rng:(rng ~seed ~sub 2));
  let t3 = Prof.now_ns () in
  { prog; csr_ns = t1 - t0; compile_ns = t2 - t1; init_ns = t3 - t2 }

let run_workload (w : workload) ~seed ~sub ~traced =
  let { prog; csr_ns; compile_ns; init_ns } = build_input w ~seed ~sub in
  let max_steps = w.budget in
  let pr = if traced then Some (Prof.create ()) else None in
  let stamps = samples () and movers = samples () in
  let gc0 = Gc.quick_stat () in
  let t0 = Prof.now_ns () in
  let r =
    if w.parts = 1 then
      let on_step =
        Option.map
          (fun _ ~step:_ ~moved ->
            push stamps (Prof.now_ns ());
            push movers (List.length moved))
          pr
      in
      Flat.run ~rng:(rng ~seed ~sub 3) ?max_steps ?on_step ?prof:pr
        ~daemon:w.daemon prog
    else
      let last = ref 0 in
      let heartbeat =
        Option.map
          (fun _ ->
            ( 1,
              fun (b : Flat.beat) ->
                push stamps (Prof.now_ns ());
                push movers (b.Flat.hb_moves - !last);
                last := b.Flat.hb_moves ))
          pr
      in
      Flat.run_partitioned ?max_steps ?prof:pr ?heartbeat ~parts:w.parts prog
  in
  let t1 = Prof.now_ns () in
  (* Read after the team's shutdown, the caller's counters include the
     joined worker domains' allocation: OCaml 5 folds a terminated
     domain's counters into the process totals. *)
  let gc1 = Gc.quick_stat () in
  let digest = Progs.digest prog r in
  let t2 = Prof.now_ns () in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  (* The partitioned run must reproduce the sequential run on the same
     input; this reference run is not timed. *)
  let reference =
    if w.parts = 1 || traced then []
    else
      let { prog = ref_prog; _ } = build_input w ~seed ~sub in
      let rr = Flat.run ?max_steps ~daemon:Flat.Synchronous ref_prog in
      [ ("reference_digest", Json.String (Progs.digest ref_prog rr)) ]
  in
  let sum = Array.fold_left ( + ) 0 in
  let fields =
    [
      ("workload", Json.String w.name);
      ("seed", Json.Int seed);
      ("sub", Json.Int sub);
      ("n", Json.Int w.n);
      ("budget", match w.budget with Some b -> Json.Int b | None -> Json.Null);
      ("outcome", Json.String (outcome r.Flat.outcome));
      ("legitimate", Json.Bool r.Flat.legitimate);
      ("steps", Json.Int r.Flat.steps);
      ("moves", Json.Int r.Flat.moves);
      ("rounds", Json.Int r.Flat.rounds);
      ("moves_per_process_sum", Json.Int (sum r.Flat.moves_per_process));
      ( "moves_per_rule_sum",
        Json.Int (List.fold_left (fun a (_, k) -> a + k) 0 r.Flat.moves_per_rule) );
      ("digest", Json.String digest);
      ("csr.build_s", Json.Float (secs csr_ns));
      ("flat.compile_s", Json.Float (secs compile_ns));
      ("progs.init_s", Json.Float (secs init_ns));
      ("run_s", Json.Float (secs (t1 - t0)));
      ("flat.checksum_s", Json.Float (secs (t2 - t1)));
      ( "gc.minor_words_per_move",
        Json.Float
          ((gc1.Gc.minor_words -. gc0.Gc.minor_words)
          /. float_of_int (max 1 r.Flat.moves)) );
      ("gc.major_collections", Json.Int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("top_heap_mb", Json.Float (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.));
    ]
  in
  let traced_fields =
    match pr with
    | None -> []
    | Some pr -> layers pr w r ~run_ns:(t1 - t0) @ step_shape stamps movers
  in
  print_endline (Json.to_string (Json.Obj (fields @ reference @ traced_fields)))

let () =
  match Sys.argv with
  | [| _; name; seed; sub; mode |] -> (
      match
        ( List.find_opt (fun w -> String.equal w.name name) workloads,
          int_of_string_opt seed,
          int_of_string_opt sub,
          mode )
      with
      | Some w, Some seed, Some sub, ("plain" | "traced") ->
          run_workload w ~seed ~sub ~traced:(String.equal mode "traced")
      | _ ->
          prerr_endline "bench: unknown workload, bad seed or sub, or bad mode";
          exit 2)
  | _ ->
      prerr_endline "usage: bench.exe WORKLOAD SEED SUB (plain|traced)";
      exit 2
