module Algorithm = Ssreset_sim.Algorithm
module Daemon = Ssreset_sim.Daemon
module Engine = Ssreset_sim.Engine
module Fault = Ssreset_sim.Fault
module Graph = Ssreset_graph.Graph
module Sdr = Ssreset_core.Sdr
module Json = Ssreset_obs.Json
module Metrics = Ssreset_obs.Metrics
module Monitor = Ssreset_obs.Monitor
module Obs = Ssreset_obs.Obs
module Sink = Ssreset_obs.Sink

type obs = {
  outcome_ok : bool;
  result_ok : bool;
  rounds : int;
  moves : int;
  steps : int;
  sdr_moves : int;
  max_proc_moves : int;
  max_proc_sdr_moves : int option;
  workload_p50 : float;
  workload_p90 : float;
  moves_per_rule : (string * int) list;
  segments : int option;
  ar_monotone : bool option;
  wall_s : float;
}

let max_int_array = Array.fold_left max 0

(* Without per-process SDR attribution the maximum is only known when no
   SDR move was made at all; segments and alive-root monotonicity are not
   measured.  Composed runs overwrite these fields with their probes'. *)
let observation ~outcome_ok ~result_ok ~rounds ~moves ~steps ~moves_per_process
    ~moves_per_rule ~wall_s =
  (* Per-process workload distribution (the Devismes-Ilcinkas-Johnen-Mazoit
     trade-off metric): percentiles of the per-process move counts. *)
  let samples = Array.to_list (Array.map float_of_int moves_per_process) in
  let sdr_moves = Engine.moves_of_rules moves_per_rule ~prefixes:[ "SDR-" ] in
  { outcome_ok;
    result_ok;
    rounds;
    moves;
    steps;
    sdr_moves;
    max_proc_moves = max_int_array moves_per_process;
    max_proc_sdr_moves = (if sdr_moves = 0 then Some 0 else None);
    workload_p50 = Ssreset_sim.Stats.percentile samples ~p:50.;
    workload_p90 = Ssreset_sim.Stats.percentile samples ~p:90.;
    moves_per_rule;
    segments = None;
    ar_monotone = None;
    wall_s }

let of_result (r : _ Engine.result) ~outcome_ok ~result_ok =
  observation ~outcome_ok ~result_ok ~rounds:r.Engine.rounds
    ~moves:r.Engine.moves ~steps:r.Engine.steps ~moves_per_process:r.Engine.moves_per_process
    ~moves_per_rule:r.Engine.moves_per_rule ~wall_s:r.Engine.wall_s

let outcome_string = function
  | Engine.Stabilized -> "stabilized"
  | Engine.Terminal -> "terminal"
  | Engine.Step_limit -> "step-limit"

let json_opt f = function Some x -> f x | None -> Json.Null

let steps_per_s o =
  if o.wall_s > 0. then float_of_int o.steps /. o.wall_s else 0.

let obs_fields o =
  [ ("outcome_ok", Json.Bool o.outcome_ok);
    ("result_ok", Json.Bool o.result_ok);
    ("rounds", Json.Int o.rounds);
    ("moves", Json.Int o.moves);
    ("steps", Json.Int o.steps);
    ("sdr_moves", Json.Int o.sdr_moves);
    ("max_proc_moves", Json.Int o.max_proc_moves);
    ("max_proc_sdr_moves", json_opt (fun m -> Json.Int m) o.max_proc_sdr_moves);
    ("workload_p50", Json.Float o.workload_p50);
    ("workload_p90", Json.Float o.workload_p90);
    ( "moves_per_rule",
      Json.Obj
        (List.map (fun (rule, count) -> (rule, Json.Int count)) o.moves_per_rule)
    );
    ("segments", json_opt (fun s -> Json.Int s) o.segments);
    ("ar_monotone", json_opt (fun b -> Json.Bool b) o.ar_monotone);
    ("wall_s", Json.Float o.wall_s);
    ("steps_per_s", Json.Float (steps_per_s o)) ]

let obs_json o = Json.Obj (obs_fields o)

(* --------------------------- telemetry plumbing ------------------------- *)

(* When a sink is attached, a run carries a metrics registry fed by the
   engine's [on_step]/[on_round] hooks and emits one JSONL record per round
   plus a final summary.  Without a sink all of this is skipped, so the
   sweeps and benchmarks pay nothing. *)
type 'state telemetry = {
  on_step : (step:int -> enabled:int -> selected:int -> unit) option;
  on_round : (round:int -> steps:int -> moves:int -> 'state array -> unit) option;
  emit_summary : obs -> 'state Engine.result -> unit;
}

let telemetry ?sink ?(monitor_round = fun ~round:_ ~steps:_ -> ())
    ?(summary_extra = fun () -> []) ?(round_extra = fun _ -> []) () =
  match sink with
  | None -> { on_step = None; on_round = None; emit_summary = (fun _ _ -> ()) }
  | Some sink ->
      let metrics = Metrics.create () in
      let buckets = Metrics.pow2_buckets ~limit:4096. in
      let h_enabled = Metrics.histogram metrics "enabled_set_size" ~buckets in
      let h_selected = Metrics.histogram metrics "selected_set_size" ~buckets in
      let h_round = Metrics.histogram metrics "steps_per_round" ~buckets in
      let last_round_steps = ref 0 in
      let on_step ~step:_ ~enabled ~selected =
        Metrics.observe h_enabled (float_of_int enabled);
        Metrics.observe h_selected (float_of_int selected)
      in
      let on_round ~round ~steps ~moves cfg =
        Metrics.observe h_round (float_of_int (steps - !last_round_steps));
        last_round_steps := steps;
        (* Bound monitors see the round before its record is written, so an
           anomaly precedes the round record that exposes it. *)
        monitor_round ~round ~steps;
        Sink.write sink
          (Sink.round_record ~round ~steps ~moves ~extra:(round_extra cfg) ())
      in
      let emit_summary (o : obs) (result : _ Engine.result) =
        List.iter
          (fun (rule, count) ->
            Metrics.add (Metrics.counter metrics ("moves." ^ rule)) count)
          result.Engine.moves_per_rule;
        Metrics.set (Metrics.gauge metrics "wall_s") o.wall_s;
        Metrics.set (Metrics.gauge metrics "steps_per_s") (steps_per_s o);
        (match o.segments with
        | Some s -> Metrics.set (Metrics.gauge metrics "segments") (float_of_int s)
        | None -> ());
        let fields = obs_fields o in
        Sink.write sink
          (Sink.summary ~outcome:(outcome_string result.Engine.outcome)
             ~rounds:o.rounds ~steps:o.steps ~moves:o.moves ~wall_s:o.wall_s
             ~extra:
               (List.map
                  (fun key -> (key, List.assoc key fields))
                  [ "outcome_ok"; "result_ok"; "sdr_moves"; "max_proc_moves";
                    "max_proc_sdr_moves"; "segments"; "ar_monotone";
                    "moves_per_rule" ]
               @ (("metrics", Metrics.to_json metrics) :: summary_extra ()))
             ())
      in
      { on_step = Some on_step; on_round = Some on_round; emit_summary }

(* ------------------------------ observers ------------------------------- *)

(* What a run installs besides the engine: an optional step observer, the
   telemetry hooks, and the observation extractor. *)
type 'state hooks = {
  observer : 'state Obs.t option;
  tele : 'state telemetry;
  finish : 'state Engine.result -> outcome_ok:bool -> result_ok:bool -> obs;
}

(* Observers shared by all composed runs, as a stack of reusable probes:
   per-process SDR move counts, segment counting, and the subset check of
   Remark 4 (alive-root sets only shrink).  With a sink attached, online
   bound monitors ride along (move/round bounds per system, alive-root
   monotonicity for all) and [trace_steps] adds the step-level wave-tagged
   records of the ssreset-trace-v1 schema. *)
let composed_hooks (type s) (module C : Sdr.S with type inner = s) ?sink
    ~trace_steps ?rounds_bound ?moves_bound graph cfg0 =
  let per_proc_sdr, sdr_probe =
    Obs.per_process_moves ~n:(Graph.n graph)
      ~matches:(String.starts_with ~prefix:"SDR-") ()
  in
  let segments = C.Segments.create graph cfg0 in
  let monotone, root_probe =
    Obs.shrinking ~measure:(C.alive_roots graph) ~init:(C.alive_roots graph cfg0)
  in
  let monitor = Option.map (fun sink -> Monitor.create ~sink ()) sink in
  let monitor_probes =
    match monitor with
    | None -> []
    | Some m ->
        (match moves_bound with
        | Some bound ->
            [ Monitor.move_bound m ~name:"moves-bound"
                ~bound:(Lazy.force bound) ]
        | None -> [])
        @ [ Monitor.non_increasing m ~name:"alive-roots-monotone"
              ~measure:(C.count_alive_roots graph)
              ~init:(C.count_alive_roots graph cfg0) ]
  in
  let tracer =
    match (sink, trace_steps) with
    | Some sink, true ->
        let tracker = C.Waves.create graph cfg0 in
        Sink.write sink
          (Sink.init_record
             ~active:
               (List.map
                  (fun (p, st, d) -> (p, Sdr.status_to_string st, d))
                  (C.Waves.initial_active cfg0)));
        [ (fun ~step ~moved after ->
            Sink.write sink
              (Sink.step_record ~step
                 ~movers:(C.Waves.classify_movers tracker moved));
            C.Waves.observer tracker ~step ~moved after) ]
    | _ -> []
  in
  let observer =
    Obs.combine
      ([ sdr_probe; C.Segments.observer segments; root_probe ]
      @ monitor_probes @ tracer)
  in
  let finish result ~outcome_ok ~result_ok =
    { (of_result result ~outcome_ok ~result_ok) with
      max_proc_sdr_moves = Some (max_int_array per_proc_sdr);
      segments = Some (C.Segments.count segments);
      ar_monotone = Some !monotone }
  in
  let round_extra cfg =
    [ ("alive_roots", Json.Int (C.count_alive_roots graph cfg));
      ("segments", Json.Int (C.Segments.count segments)) ]
  in
  let monitor_round ~round ~steps =
    match (monitor, rounds_bound) with
    | Some m, Some bound ->
        Monitor.round_bound m ~name:"rounds-bound" ~bound ~round ~steps
    | _ -> ()
  in
  let summary_extra () =
    match monitor with
    | Some m -> [ ("anomalies", Json.Int (Monitor.anomaly_count m)) ]
    | None -> []
  in
  { observer = Some observer;
    tele = telemetry ?sink ~monitor_round ~summary_extra ~round_extra ();
    finish }

(* Bare (non-composed) runs install no monitors and measure neither
   segments nor alive-root monotonicity; step-level tracing records movers
   without wave tags, after the system's own probes. *)
let bare_hooks ?sink ~trace_steps probes =
  let tracer =
    match sink with
    | Some sink when trace_steps ->
        [ (fun ~step ~moved _cfg ->
            Sink.write sink
              (Sink.step_record ~step
                 ~movers:(List.map (fun (p, rule) -> (p, rule, None)) moved))) ]
    | _ -> []
  in
  { observer =
      (match probes @ tracer with
      | [] -> None
      | [ p ] -> Some p
      | ps -> Some (Obs.combine ps));
    tele = telemetry ?sink ();
    finish = of_result }

(* ------------------------------ descriptors ----------------------------- *)

type 'state observers =
  | Composed : {
      sdr : (module Sdr.S with type inner = 'i);
      rounds_bound : int option;
      moves_bound : int Lazy.t option;
    }
      -> 'i Sdr.state observers
  | Bare of 'state Obs.t list

type instance =
  | Instance : {
      algorithm : 'state Algorithm.t;
      init : 'state array;
      stop : 'state array -> bool;
      expected : Engine.outcome;
      check : outcome_ok:bool -> 'state Engine.result -> bool;
      observers : 'state observers;
    }
      -> instance

type system = {
  name : string;
  doc : string;
  max_steps : int;
  instance : Graph.t -> Random.State.t -> instance;
}

let name s = s.name
let doc s = s.doc

let never _ = false

(* The usual output check: the expected outcome was reached and the final
   configuration satisfies [ok]. *)
let final_ok ok ~outcome_ok (r : _ Engine.result) =
  outcome_ok && ok r.Engine.final

(* I ∘ SDR from an arbitrary configuration (uniform SDR status, distance in
   [0..2n], inner state from [inner]), run [until] the first normal
   configuration or until silence, where the final configuration must pass
   the output check. *)
let composed (type s) (module C : Sdr.S with type inner = s) ~inner
    ?rounds_bound ?moves_bound ~until graph rng =
  let gen = C.generator ~inner ~max_d:(2 * Graph.n graph) in
  let stop, expected, ok =
    match until with
    | `Normal -> (C.is_normal graph, Engine.Stabilized, C.is_normal graph)
    | `Silent ok -> (never, Engine.Terminal, ok)
  in
  Instance
    { algorithm = C.algorithm;
      init = Fault.arbitrary rng gen graph;
      stop;
      expected;
      check = final_ok ok;
      observers = Composed { sdr = (module C); rounds_bound; moves_bound } }

let unison =
  { name = "unison";
    doc = "U∘SDR from an arbitrary configuration (stop at first normal)";
    max_steps = 20_000_000;
    instance =
      (fun graph rng ->
        let n = Graph.n graph in
        let module U = Ssreset_unison.Unison.Make (struct
          let k = (2 * n) + 2
        end) in
        (* The D·n² bound needs the diameter; only pay for it when a sink
           is actually watching. *)
        composed (module U.Composed) ~inner:U.clock_gen ~rounds_bound:(3 * n)
          ~moves_bound:(lazy (Ssreset_graph.Metrics.diameter graph * n * n))
          ~until:`Normal graph rng) }

let unison_bare =
  { name = "unison-bare";
    doc = "U alone from γ_init for a fixed step budget (safety + liveness)";
    max_steps = 10_000;
    instance =
      (fun graph _ ->
        let module U = Ssreset_unison.Unison.Make (struct
          let k = (2 * Graph.n graph) + 2
        end) in
        let monitor = Ssreset_unison.Checker.create_monitor ~k:U.k graph in
        Instance
          { algorithm = U.bare;
            init = U.gamma_init graph;
            stop = never;
            (* U never terminates from γ_init (Lemma 18), so exhausting the
               step budget is the expected outcome here. *)
            expected = Engine.Step_limit;
            check =
              (fun ~outcome_ok:_ _ ->
                Ssreset_unison.Checker.safety_violations monitor = 0
                && Ssreset_unison.Checker.min_increments monitor > 0);
            observers =
              Bare [ Ssreset_unison.Checker.observe_bare monitor ] }) }

(* A bare algorithm from an arbitrary configuration, run until [legit]. *)
let until_legitimate algorithm gen legit graph rng =
  Instance
    { algorithm;
      init = Fault.arbitrary rng gen graph;
      stop = legit graph;
      expected = Engine.Stabilized;
      check = final_ok (legit graph);
      observers = Bare [] }

let tail_unison =
  { name = "tail-unison";
    doc = "tail-unison baseline from an arbitrary configuration";
    max_steps = 50_000_000;
    instance =
      (fun graph rng ->
        let n = Graph.n graph in
        let module T = Ssreset_unison.Tail_unison.Make (struct
          let k = (2 * n) + 2
          let alpha = n
        end) in
        until_legitimate T.algorithm T.clock_gen T.is_legitimate graph rng) }

let min_unison =
  { name = "min-unison";
    doc = "min-unison baseline (K = n²+1) from an arbitrary configuration";
    max_steps = 50_000_000;
    instance =
      (fun graph rng ->
        let n = Graph.n graph in
        let module M = Ssreset_unison.Min_unison.Make (struct
          let k = (n * n) + 1
          let alpha = max 1 (n - 2)
        end) in
        until_legitimate M.algorithm M.clock_gen M.is_legitimate graph rng) }

let agr_unison =
  { name = "agr-unison";
    doc = "U∘AGR (mono-initiator reset baseline; needs a weakly fair daemon)";
    max_steps = 2_000_000;
    instance =
      (fun graph rng ->
        let module U = Ssreset_unison.Unison.Make (struct
          let k = (2 * Graph.n graph) + 2
        end) in
        let module A =
          Ssreset_agreset.Agreset.Make
            (U.Input)
            (struct
              let graph = graph
              let root = 0
            end)
        in
        until_legitimate A.algorithm (A.generator ~inner:U.clock_gen)
          A.is_normal graph rng) }

let lemma25_bound graph u =
  let deg = Graph.degree graph u in
  let delta = Graph.max_degree graph in
  (8 * deg * delta) + (18 * deg) + 24

(* Fga.Make rejects a spec that is infeasible on the graph
   (Invalid_argument), so both alliance systems check feasibility on the
   graph they run on. *)
let alliance_bare spec =
  { name = "alliance-bare";
    doc =
      Printf.sprintf "FGA(%s) from γ_init (non self-stabilizing run)"
        spec.Ssreset_alliance.Spec.spec_name;
    max_steps = 20_000_000;
    instance =
      (fun graph _ ->
        let module F = Ssreset_alliance.Fga.Make (struct
          let graph = graph
          let spec = spec
          let ids = None
        end) in
        Instance
          { algorithm = F.bare;
            init = F.gamma_init ();
            stop = never;
            expected = Engine.Terminal;
            check =
              (fun ~outcome_ok r ->
                outcome_ok
                && List.for_all
                     (fun u ->
                       r.Engine.moves_per_process.(u) <= lemma25_bound graph u)
                     (List.init (Graph.n graph) Fun.id)
                && Ssreset_alliance.Checker.is_one_minimal graph spec
                     (F.alliance r.Engine.final));
            observers = Bare [] }) }

let alliance ?(stop_at_normal = false) spec =
  { name = "alliance";
    doc =
      Printf.sprintf "FGA(%s)∘SDR from an arbitrary configuration"
        spec.Ssreset_alliance.Spec.spec_name;
    max_steps = 50_000_000;
    instance =
      (fun graph rng ->
        let module F = Ssreset_alliance.Fga.Make (struct
          let graph = graph
          let spec = spec
          let ids = None
        end) in
        composed (module F.Composed) ~inner:F.gen
          ~rounds_bound:((8 * Graph.n graph) + 4)
          ~until:
            (if stop_at_normal then `Normal
             else
               `Silent
                 (fun final ->
                   Ssreset_alliance.Checker.is_one_minimal graph spec
                     (F.alliance_of_composed final)))
          graph rng) }

let coloring =
  { name = "coloring";
    doc = "coloring∘SDR from an arbitrary configuration";
    max_steps = 20_000_000;
    instance =
      (fun graph rng ->
        let module C = Ssreset_coloring.Coloring.Make (struct
          let graph = graph
          let ids = None
        end) in
        composed (module C.Composed) ~inner:C.gen
          ~until:
            (`Silent (fun final -> C.is_proper (C.coloring_of_composed final)))
          graph rng) }

let mis =
  { name = "mis";
    doc = "MIS∘SDR from an arbitrary configuration";
    max_steps = 20_000_000;
    instance =
      (fun graph rng ->
        let module M = Ssreset_mis.Mis.Make (struct
          let graph = graph
          let ids = None
        end) in
        composed (module M.Composed) ~inner:M.gen
          ~until:
            (`Silent
               (fun final -> M.is_mis (M.independent_set_of_composed final)))
          graph rng) }

let matching =
  { name = "matching";
    doc = "matching∘SDR from an arbitrary configuration";
    max_steps = 20_000_000;
    instance =
      (fun graph rng ->
        let module M = Ssreset_matching.Matching.Make (struct
          let graph = graph
          let ids = None
        end) in
        composed (module M.Composed) ~inner:M.gen
          ~until:
            (`Silent
               (fun final ->
                 M.is_maximal_matching (M.matching_of_composed final)))
          graph rng) }

let systems ~spec =
  [ unison; tail_unison; min_unison; agr_unison; alliance spec;
    alliance_bare spec; coloring; mis; matching ]

(* -------------------------------- the run ------------------------------- *)

let hooks : type s.
    ?sink:Sink.t -> trace_steps:bool -> Graph.t -> s array -> s observers ->
    s hooks =
 fun ?sink ~trace_steps graph cfg0 -> function
  | Composed { sdr; rounds_bound; moves_bound } ->
      composed_hooks sdr ?sink ~trace_steps ?rounds_bound ?moves_bound graph
        cfg0
  | Bare probes -> bare_hooks ?sink ~trace_steps probes

let run ?max_steps ?prof ?sink ?(trace_steps = false) system ~graph ~daemon
    ~seed =
  (* Independent states for the initial configuration and the daemon. *)
  let cfg_rng = Random.State.make [| seed; 17 |] in
  let rng = Random.State.make [| seed; 91 |] in
  let (Instance i) = system.instance graph cfg_rng in
  let h = hooks ?sink ~trace_steps graph i.init i.observers in
  let result =
    Engine.run ?prof ~rng
      ~max_steps:(Option.value max_steps ~default:system.max_steps)
      ?observer:h.observer ?on_step:h.tele.on_step ?on_round:h.tele.on_round
      ~stop:i.stop ~algorithm:i.algorithm ~graph ~daemon i.init
  in
  let outcome_ok = result.Engine.outcome = i.expected in
  let o = h.finish result ~outcome_ok ~result_ok:(i.check ~outcome_ok result) in
  h.tele.emit_summary o result;
  o

(* The name → daemon table lives in {!Ssreset_sim.Daemon.registry}; every
   consumer (this lookup, the sweep pool, the CLI doc string) derives from
   it, so the lists cannot drift. *)
let daemon_by_name name =
  match Daemon.by_name name with
  | Some d -> d
  | None ->
      invalid_arg
        (Printf.sprintf "unknown daemon: %s (one of: %s)" name
           (String.concat ", " (Daemon.names ())))

let experiment_daemons () =
  List.map daemon_by_name
    [ "synchronous"; "central-random" ]
  @ [ Daemon.distributed_random 0.3; Daemon.distributed_random 0.8 ]
  @ List.map daemon_by_name [ "locally-central"; "round-robin"; "adversarial" ]
