(** Registry of finitely-checkable algorithm instances, plus the runner
    that drives {!Lint} and {!Model} over all connected graphs up to a
    per-entry size bound (one representative per isomorphism class, via
    [Gen.all_connected]).

    {!entries} holds the paper algorithms — all expected clean.
    {!fixtures} holds the deliberately broken toys of {!Toy} — expected
    dirty; they are kept apart so "every registered algorithm passes" stays
    meaningful. *)

type entry = {
  name : string;
  description : string;
  expect_silent : bool;
      (** silent algorithms additionally get the acyclicity check of
          {!Model.options.expect_silent} *)
  round_bound : (int -> int) option;
      (** the paper's stabilization bound in rounds, as a function of n *)
  min_n : int;  (** smallest meaningful graph size (FGA needs n ≥ 2) *)
  max_n_quick : int;  (** graph-size ceiling under [dune runtest] *)
  max_n_full : int;  (** graph-size ceiling for the CLI default *)
  instance : Ssreset_graph.Graph.t -> Finite.t;
  footprint : (Ssreset_graph.Graph.t -> Footprint.target) option;
      (** composed targets carry the full layer decomposition; [None]
          falls back to the monolithic {!Footprint.of_finite} view *)
  sym : (Ssreset_graph.Graph.t -> Sym.instance) option;
      (** symbolic-IR instance for the differential pass ({!Sym.check});
          [None] when no IR is attached *)
  smt_spec : Sym.spec option;
      (** the topology-parametric symbolic spec {!Obligation} compiles to
          SMT-LIB; usually the spec underlying [sym], shared across graph
          sizes *)
  comp_spec : Sym.spec option;
      (** the {e composed}-system spec whose rank family
          {!Obligation.compile_composition} turns into [comp.*]
          obligations — only unison-sdr carries one, derived as
          [Sym.compose_sdr Ssreset_ir.Specs.unison_input_spec] *)
}

val coloring_spec : Sym.spec
val mis_spec : Sym.spec
val matching_spec : Sym.spec
val fga_spec : Sym.spec
(** Topology-parametric symbolic IRs of the four bare SDR input layers
    (ids = process indices; options encoded as integers with ⊥ = -1;
    [fga_spec] is specialized to [Spec.dominating_set]).  Each carries
    the full §3.5 reset interface; coloring and MIS also carry an
    ["undecided"] rank. *)

val unison_sdr_composed_sym : Ssreset_graph.Graph.t -> Sym.instance
(** Differential instance for [Sym.compose_sdr unison_input_spec] against
    [Sdr.Make]'s OCaml rules on one graph (the bounded oracle behind the
    flat engine's compiler). *)

val encode_sdr :
  ('i -> (string * Sym.value) list) ->
  'i Ssreset_core.Sdr.state ->
  (string * Sym.value) list
(** Composed-state encoding for any input encoder: [st], [d], then the
    input's fields — the field layout of {!Sym.compose_sdr}. *)

val encode_coloring :
  Ssreset_coloring.Coloring.state -> (string * Sym.value) list

val encode_mis : Ssreset_mis.Mis.state -> (string * Sym.value) list

val encode_matching :
  Ssreset_matching.Matching.state -> (string * Sym.value) list

val encode_fga : Ssreset_alliance.Fga.state -> (string * Sym.value) list
(** The input-layer encoders the differential instances use. *)

val coloring_inner :
  Ssreset_graph.Graph.t -> int -> Ssreset_coloring.Coloring.state list

val mis_inner : int -> Ssreset_mis.Mis.state list

val matching_inner :
  Ssreset_graph.Graph.t -> int -> Ssreset_matching.Matching.state list

val fga_inner :
  Ssreset_alliance.Spec.t ->
  Ssreset_graph.Graph.t ->
  int ->
  Ssreset_alliance.Fga.state list
(** Per-process seed domains of the input layers (the inner half of the
    composed entries' {!Finite.sdr_domain}). *)

val entries : entry list
(** min-unison, tail-unison, unison-sdr, coloring-sdr, mis-sdr,
    matching-sdr, fga-sdr.  The unison entries carry a ["climb-debt"]
    certificate, unison-sdr a ["wave-completion"] one, and coloring-sdr /
    mis-sdr an ["undecided"] one ({!Cert}).  Every entry now attaches a
    symbolic IR, so [check smt emit] covers the whole registry. *)

val fixtures : entry list
(** toy-livelock, toy-overlap, toy-interference, toy-badsym, toy-badcert,
    toy-badrank ({!Toy}).  toy-badsym is clean under lint, footprint and
    the model checker; only the symbolic differential flags it.
    toy-badrank is additionally clean under the guard/post differential;
    only the ranking differential (["rank"] mismatches) flags it. *)

val footprint_target : entry -> Ssreset_graph.Graph.t -> Footprint.target
(** The target {!run} analyzes for this entry on one graph (declared or
    derived). *)

val find : string -> entry list
(** Case-insensitive substring match over entries and fixtures — ["unison"]
    selects min-unison, tail-unison and unison-sdr. *)

val run :
  ?mode:[ `Quick | `Full ] ->
  ?max_n:int ->
  ?max_views_per_process:int ->
  ?footprint:bool ->
  ?sym:bool ->
  ?graphs:(int -> Ssreset_graph.Graph.t list) ->
  ?options:Model.options ->
  entry ->
  Report.entry_report
(** Lint, footprint-analyze, differentially validate the symbolic IR
    (when attached; [sym:false] skips the pass) and model-check one entry
    on every graph
    yielded by [graphs n] (default [Gen.all_connected]: every connected
    graph, one per isomorphism class) for [entry.min_n ≤ n ≤ max_n]
    (default: the entry's quick/full ceiling for [mode], itself defaulting
    to [`Full]).  Restricting [graphs] to one family (e.g. complete
    graphs) lets symmetry-reduced runs reach larger [n] affordably.
    [options.expect_silent] is overridden by the entry's flag; when the
    entry declares a round bound and the checker computed a worst case
    above it, a ["round-bound"] violation is added to that graph's result.
    Lint findings are merged across graphs (one per lint × rule set,
    counts summed); footprint reports are {!Footprint.merge}d the same way
    ([footprint:false] skips the pass and leaves the report field
    [None]). *)
