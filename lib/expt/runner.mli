(** One-shot measured runs of every system, with the observers needed by
    the experiments (per-process SDR move counts, segment counting,
    alive-root monotonicity) and optional JSONL telemetry.

    Every system is a descriptor (see {!system}) driven by the one {!run}.
    The paper's SDR is a generic transformer, so every I∘SDR run is the
    same run with a different input algorithm, stop predicate and output
    check; the bare baselines are that run without the SDR observers.

    [run] accepts [?sink]: when given, the run streams one
    {!Ssreset_obs.Sink.round_record} per completed round and a final
    {!Ssreset_obs.Sink.summary} (with per-rule move counters and a
    {!Ssreset_obs.Metrics} snapshot) into it.  The caller writes the
    manifest — it knows the graph family and CLI context; the runner does
    not.  Without a sink no telemetry code runs at all.  [?prof] is
    forwarded to {!Ssreset_sim.Engine.run}: an attached {!Ssreset_obs.Prof}
    profiler collects phase/rule timings, scheduler and GC counters, and
    streaming windows, without changing any result.

    With a sink attached, composed runs additionally install online
    {!Ssreset_obs.Monitor}s: the 3n round bound and D·n² move bound for
    U∘SDR (8n+4 rounds for FGA∘SDR) and the alive-root monotonicity of
    Remark 4 — any violation emits an [anomaly] record the moment it is
    observed, and the summary carries the anomaly count.  Passing
    [~trace_steps:true] (requires a sink) additionally streams one [init]
    record plus one wave-tagged [step] record per engine step — the
    [ssreset-trace-v1] schema consumed by {!Ssreset_obs.Tracefile} and the
    [ssreset trace] CLI.  Bare runs trace steps without wave tags and
    install no monitors. *)

type obs = {
  outcome_ok : bool;
      (** the run ended the way the theory predicts (stabilized for unison,
          terminal for the silent systems, step budget not exhausted) *)
  result_ok : bool;
      (** problem-specific output check: normal configuration reached,
          1-minimal alliance, proper coloring, MIS, safety… *)
  rounds : int;
  moves : int;
  steps : int;
  sdr_moves : int;  (** moves of SDR rules only (0 for bare runs) *)
  max_proc_moves : int;
  max_proc_sdr_moves : int option;
      (** per-process maximum of SDR moves; [None] when SDR moves were made
          but not attributed to processes (flat-engine runs) *)
  workload_p50 : float;
      (** median of the per-process move counts (numpy-style linear
          interpolation, {!Ssreset_sim.Stats.percentile}) *)
  workload_p90 : float;  (** 90th percentile of per-process move counts *)
  moves_per_rule : (string * int) list;
      (** per-rule move counts in the engine's rule order — also in the JSON
          observation, so classic and flat runs compare field-for-field *)
  segments : int option;  (** [None] for bare runs, where it is not measured *)
  ar_monotone : bool option;
      (** alive-root sets only ever shrink (Remark 4); [None] for bare runs,
          where there are no alive roots to watch *)
  wall_s : float;  (** wall-clock seconds of the engine run *)
}

val obs_json : obs -> Ssreset_obs.Json.t
(** Machine-readable rendering of an observation (unmeasured fields are
    [null]); includes a derived [steps_per_s]. *)

val observation :
  outcome_ok:bool ->
  result_ok:bool ->
  rounds:int ->
  moves:int ->
  steps:int ->
  moves_per_process:int array ->
  moves_per_rule:(string * int) list ->
  wall_s:float ->
  obs
(** The observation of a run without the composed-system probes — what
    bare runs report, and what the flat engine reports from its counters.
    [sdr_moves] sums the [SDR-] rules of [moves_per_rule];
    [max_proc_sdr_moves] is [Some 0] when that sum is 0 and [None]
    (unmeasured) otherwise; [segments] and [ar_monotone] are [None]. *)

(** {1 Systems} *)

type system
(** A system descriptor: the input algorithm, its initial configuration
    (drawn from the configuration RNG of the run's seed), stop predicate,
    expected outcome, output check and observers. *)

val name : system -> string
(** The name the CLI's [run SYSTEM] accepts. *)

val doc : system -> string
(** One-line description, also the title of the CLI's text report. *)

val unison : system
(** U∘SDR with K = 2n+2 from an arbitrary configuration, run until the
    first normal configuration. *)

val unison_bare : system
(** U alone from γ_init for the whole step budget (default 10 000);
    [result_ok] = no safety violation and every process incremented at
    least once (liveness proxy — use a generous budget).  Unlike the other
    systems, [result_ok] does not require [outcome_ok]. *)

val tail_unison : system
(** The baseline with K = 2n+2, α = n, from an arbitrary configuration, run
    until legitimate. *)

val min_unison : system
(** The Couvreur-style baseline with K = n²+1, from an arbitrary
    configuration, run until legitimate. *)

val agr_unison : system
(** U composed with the mono-initiator AGR reset baseline (root = process
    0), run until the first normal configuration.  AGR needs a weakly fair
    daemon (see {!Ssreset_agreset.Agreset}); under unfair schedules such as
    ["central-first"] it can livelock, which experiment E15 demonstrates
    deliberately (a [Step_limit] outcome then yields [outcome_ok = false]). *)

val alliance_bare : Ssreset_alliance.Spec.t -> system
(** FGA from γ_init until terminal; [result_ok] = 1-minimal alliance and the
    per-process move bound of Lemma 25 (8δΔ + 18δ + 24) holds.
    @raise Invalid_argument from {!run} if the spec is infeasible on the
    graph. *)

val alliance : ?stop_at_normal:bool -> Ssreset_alliance.Spec.t -> system
(** FGA ∘ SDR from an arbitrary configuration until terminal (silence), or
    until the first normal configuration when [stop_at_normal] is set.
    @raise Invalid_argument from {!run} if the spec is infeasible on the
    graph. *)

(** Coloring, MIS and maximal matching ∘ SDR, each from an arbitrary
    configuration until terminal (silence). *)

val coloring : system
val mis : system
val matching : system

val systems : spec:Ssreset_alliance.Spec.t -> system list
(** The systems of the CLI's [run SYSTEM], in its order: every system
    above but {!unison_bare}; the alliance ones use [spec]. *)

val run :
  ?max_steps:int ->
  ?prof:Ssreset_obs.Prof.t ->
  ?sink:Ssreset_obs.Sink.t ->
  ?trace_steps:bool ->
  system ->
  graph:Ssreset_graph.Graph.t ->
  daemon:Ssreset_sim.Daemon.t ->
  seed:int ->
  obs
(** One measured run of [system] on [graph] under [daemon].  [seed] derives
    two independent RNG states: one draws the initial configuration, the
    other drives the daemon.  [max_steps] defaults to the system's own
    budget. *)

val daemon_by_name : string -> Ssreset_sim.Daemon.t
(** Fresh daemon from {!Ssreset_sim.Daemon.registry} — the single
    name → daemon table shared with the CLI.
    @raise Invalid_argument on unknown names, listing the valid ones. *)

val experiment_daemons : unit -> Ssreset_sim.Daemon.t list
(** The pool used by the sweeps: synchronous, central-random,
    distributed-random (0.3 and 0.8), locally-central, round-robin and an
    adversarial-rule daemon preferring input moves over resets.  Named
    entries come from {!Ssreset_sim.Daemon.registry}. *)
