(** Differential validation of the symbolic rule IR ({!Ssreset_ir.Sym},
    included here, so [Sym.spec] is one type everywhere): the IR is
    evaluated on concrete views and must agree with the OCaml rules on the
    enabled set and the post-state — over strided per-process view spaces
    ({!differential_views}, in the spirit of {!Footprint}'s probing) and
    over engine-style executions under every registered daemon
    ({!differential_daemons}).  A lying IR is an executable-spec bug and is
    reported like any other finding. *)

include module type of struct
  include Ssreset_ir.Sym
end

(** {2 Instances and differential validation} *)

module type INSTANCE = sig
  type state

  val spec : spec
  val param_values : (string * int) list
  val algorithm : state Ssreset_sim.Algorithm.t
  val graph : Ssreset_graph.Graph.t
  val domain : int -> state list
  val encode : state -> (string * value) list
  val is_legitimate : (state array -> bool) option
end

type instance = (module INSTANCE)

val make_instance :
  spec:spec ->
  params:(string * int) list ->
  algorithm:'s Ssreset_sim.Algorithm.t ->
  graph:Ssreset_graph.Graph.t ->
  domain:(int -> 's list) ->
  encode:('s -> (string * value) list) ->
  ?is_legitimate:('s array -> bool) ->
  unit ->
  instance

type mismatch = {
  where : string;  (** e.g. ["view u=2"] or ["daemon synchronous"] *)
  rules : string list;
  detail : string;  (** first witness, human-readable *)
  count : int;
}

type diff = {
  views : int;  (** probed views *)
  steps : int;  (** executed engine-style steps *)
  daemons : int;  (** daemons driven *)
  mismatches : mismatch list;  (** [[]] = the IR agrees everywhere *)
}

val diff_ok : diff -> bool
val merge_diffs : diff list -> diff
val pp_mismatch : mismatch Fmt.t

val differential_views :
  ?max_views_per_process:int -> instance -> diff
(** Strided sweep of each process's view space (own domain × neighbor
    domains, default cap 2000 views per process, as {!Lint}): per rule,
    the OCaml guard and the IR guard must agree on every probed view, and
    on enabled views the OCaml action must equal the IR assignment
    application.  Also validates the static {!well_formed} lint, the
    rule-name alignment, and that every seed-domain state satisfies the
    declared {!ir.ranges}. *)

val differential_daemons :
  ?max_steps:int -> ?seeds:int list -> instance -> diff
(** Drive the instance from random seed configurations under {e every}
    registered daemon ({!Ssreset_sim.Daemon.registry}), cross-checking at
    each step the enabled set (process and rule name), each mover's
    post-state, and — when both the spec and the instance carry a
    legitimacy predicate — the view-level legitimate form against the
    concrete configuration predicate. *)

val check :
  ?max_views_per_process:int -> ?max_steps:int -> instance -> diff
(** {!differential_views} + {!differential_daemons}, merged. *)
