(** Reading and validating [ssreset-trace-v1] JSONL run traces.

    The stream extends the {!Sink} record stream with step-level records so
    executions can be replayed offline.  It uses the shared {!Jsonl}
    envelope (manifest first, one summary last); the manifest carries
    [trace_schema = "ssreset-trace-v1"] and the graph's [edges] (so
    analyses need no side channel).  Between them:

    - at most one {e init} record, before any step or round record: the
      processes already mid-reset in the initial configuration
      ([(p, st, d)]);
    - {e step} records with strictly increasing step indices, each mover
      optionally tagged with its classified wave event;
    - {e round} records with strictly increasing round indices;
    - {e anomaly} records emitted by online {!Monitor}s.

    Cross-checks: the manifest's [m] equals the edge count; when any step
    record is present, the step-record count equals the summary's [steps]
    and the movers total equals its [moves]; a summary [anomalies] field
    equals the number of anomaly records. *)

type mover = { p : int; rule : string; wave : Span.event option }
type step = { index : int; movers : mover list }
type round = { round : int; steps : int; moves : int }

type anomaly = {
  monitor : string;
  step : int;
  process : int option;
  value : int;
  bound : int;
}

type summary = {
  outcome : string;
  rounds : int;
  steps : int;
  moves : int;
  wall_s : float;
  moves_per_rule : (string * int) list;  (** Empty when absent. *)
  anomaly_count : int option;  (** The summary's [anomalies] field. *)
}

type t = {
  system : string;
  family : string;
  n : int;
  seed : int;
  daemon : string;
  edges : (int * int) list;
  init_active : (int * string * int) list;  (** [(p, st, d)]. *)
  steps : step list;  (** In file order. *)
  rounds : round list;
  anomalies : anomaly list;
  summary : summary;
}

val load_string : ?path:string -> string -> (t, string) result
(** Validate and parse a whole JSONL trace.  The error message carries the
    (1-based) offending line. *)

val load_file : string -> (t, string) result
(** {!Jsonl.load_file} then {!load_string}. *)

val manifest_extra : Ssreset_graph.Graph.t -> (string * Json.t) list
(** The manifest fields that make a {!Sink} stream a trace: the schema key
    and the graph's edges.  Pass them as [Sink.manifest ~extra]. *)

val graph_of : t -> Ssreset_graph.Graph.t
(** Rebuild the run's graph from the manifest edges. *)

val mover_pairs : t -> (int * (int * string) list) list
(** The per-step [(step, [(process, rule); ...])] lists, ready for
    {!Causality.build}. *)

val span_of : t -> Span.t
(** Offline wave reconstruction: replay the recorded wave tags through the
    span builder the online tracker feeds. *)
