(** Symbolic rule IR — an executable first-order spec of a rule set.

    A {!rule} is a guard formula and a set of field assignments over a
    tiny first-order language: integer / boolean / enum terms built from
    the process's own fields, a bound neighbor's fields, symbolic
    parameters (e.g. the unison period [K]) and [forall]/[exists]
    quantification over the open neighborhood.  Registry algorithms
    optionally attach an IR alongside their OCaml rules; it serves three
    masters:

    - {b differential validation} ([Ssreset_check.Sym.check]): the IR is
      evaluated on concrete views and must agree with the OCaml rules on
      the enabled set and the post-state.  A lying IR is an
      executable-spec bug and is reported like any other finding;
    - {b SMT export} ([Ssreset_check.Obligation]): because the IR is
      first-order, the same rules compile to SMT-LIB over a {e symbolic}
      node sort, turning bounded-n verdicts into unbounded-n proof
      obligations;
    - {b the flat engine} ([Ssreset_flat.Flat]) compiles it to closures
      over unboxed per-field arrays.

    This module is the pure half — types, evaluators, substitution, the
    static lint and the {!compose_sdr} transformer — and depends on
    nothing but [fmt], so the fast engine links it without the verifier.

    The language is deliberately small: linear integer arithmetic,
    if-then-else, comparisons and neighborhood quantifiers — everything
    the paper's algorithms need and nothing a solver chokes on.
    Modular arithmetic is expressed with {!term-Ite} (e.g. the unison
    increment [(c+1) mod K] is [Ite (Eq (c, K-1), 0, c+1)], exact on the
    declared range). *)

type ty =
  | TInt
  | TBool
  | TEnum of string * string list
      (** sort name and constructors, e.g. [TEnum ("Status", ["C"; "RB"; "RF"])] *)

type site =
  | Self  (** the process's own state *)
  | Nbr  (** the innermost quantifier-bound neighbor *)

type term =
  | Num of int
  | Bool of bool  (** boolean literal, for [TBool] fields *)
  | Param of string  (** symbolic parameter, e.g. ["K"] *)
  | Var of site * string  (** field value at a site *)
  | Add of term * term
  | Sub of term * term
  | Neg of term
  | Ite of form * term * term
  | Ctor of string  (** enum constructor *)
  | Min_nbr of form * term * term
      (** [Min_nbr (filter, body, default)]: the minimum of [body] over
          the neighbors satisfying [filter] ([Var (Nbr, _)] is bound in
          both), or [default] (evaluated outside the binder) when no
          neighbor qualifies.  Needed for SDR-RB's
          [d := 1 + min {d(v) | v ∈ N(u), status v = RB}]. *)
  | Mex_nbr of form * term
      (** [Mex_nbr (filter, body)]: the least [c >= 0] such that no
          neighbor satisfying [filter] has [body = c] — Grundy coloring's
          minimum excludant.  Always [<= deg], since at most [deg]
          neighbors qualify. *)
  | Count_nbr of form
      (** Number of neighbors satisfying the filter; [Count_nbr (Const
          true)] is the degree.  Needed for the alliance score
          thresholds. *)

and form =
  | Const of bool
  | Not of form
  | And of form list
  | Or of form list
  | Imp of form * form
  | Eq of term * term
  | Le of term * term
  | Lt of term * term
  | Forall_nbr of form
      (** over the open neighborhood; inside, [Var (Nbr, f)] is the bound
          neighbor's field.  Quantifiers may nest but [Nbr] always refers
          to the innermost binder. *)
  | Exists_nbr of form

type assign = string * term
(** [field := term], evaluated in the pre-state; unassigned fields keep
    their value. *)

type rule = {
  rule : string;  (** must equal the OCaml rule's [rule_name] *)
  guard : form;
  assigns : assign list;
}

type param = {
  pname : string;
  lower : int option;  (** emitted as the axiom [pname >= lower] *)
}

type ir = {
  ir_name : string;
  fields : (string * ty) list;
  params : param list;
  ranges : (string * term * term) list;
      (** [field, lo, hi]: every state satisfies [lo <= field < hi]; the
          bounds are closed terms over params.  Asserted on pre-states of
          configuration-level obligations, validated against the concrete
          seed domains by the differential, and re-established per rule by
          the emitted range-preservation obligations. *)
  rules : rule list;
}

(** {2 Specs — predicates beyond the rules}

    The obligations of {!Obligation} need more than the transition
    relation: the legitimacy predicate (closure), a potential certificate
    (convergence) and the §3.5 reset/checkability interface of an SDR
    input layer. *)

type cert_spec = {
  cs_name : string;
  cs_rules : string list;  (** covered rules, as in {!Cert.t} *)
  cs_local : term;
      (** per-process contribution to the global potential [Σ_u local(u)];
          must read only [Self] fields, so a covered move changes exactly
          the mover's contribution. *)
}

type rank_spec = {
  rk_name : string;
  rk_rules : string list;
      (** covered rules: every one must strictly decrease the rank *)
  rk_components : term list;
      (** per-process lexicographic rank tuple, most significant first.
          Each component reads only [Self] fields, is bounded below by 0
          on every reachable state, and a covered move strictly decreases
          the mover's tuple while leaving every other process's tuple
          untouched — the implicit-rankings recipe for a global
          well-founded measure over an unbounded node sort. *)
}

type spec = {
  sp_ir : ir;
  sp_legitimate : form option;
      (** view-level; a configuration is legitimate iff the form holds at
          every process *)
  sp_p_icorrect : form option;  (** local checkability (view-level) *)
  sp_p_reset : form option;  (** reads [Self] fields only *)
  sp_reset : assign list option;  (** the [reset] macro *)
  sp_cert : cert_spec option;
  sp_rank : rank_spec option;
      (** global-ranking convergence claim, validated concretely by the
          differential (["rank"] mismatches) and exported as rank-*
          obligations by {!Obligation}. *)
}

val spec_of_ir : ir -> spec
(** All optional predicates absent. *)

(** {2 Values and evaluation} *)

type value = VInt of int | VBool of bool | VEnum of string

val value_equal : value -> value -> bool
val pp_value : value Fmt.t

exception Ill_formed of string
(** Raised by evaluation on scoping or typing errors ([Nbr] outside a
    quantifier, unknown field or parameter, boolean where an integer is
    expected). *)

val lookup : (string * value) list -> string -> value
(** A field's value in a valuation.  @raise Ill_formed on an unknown field. *)

val as_int : value -> int
(** @raise Ill_formed on a non-integer value. *)

val eval_term :
  params:(string * int) list ->
  self:(string * value) list ->
  nbrs:(string * value) list array ->
  term ->
  value

val eval_closed : params:(string * int) list -> term -> int
(** {!eval_term} of an integer term with an empty self and no neighbors:
    the value of a closed range bound. *)

val eval_form :
  params:(string * int) list ->
  self:(string * value) list ->
  nbrs:(string * value) list array ->
  form ->
  bool

val eval_rule_enabled :
  params:(string * int) list ->
  self:(string * value) list ->
  nbrs:(string * value) list array ->
  rule ->
  bool

val eval_rule_apply :
  params:(string * int) list ->
  fields:(string * ty) list ->
  self:(string * value) list ->
  nbrs:(string * value) list array ->
  rule ->
  (string * value) list
(** Post-valuation of the mover: assigned fields from their terms (in the
    pre-state), unassigned fields unchanged; result in [fields] order. *)

val subst_self_term : assign list -> term -> term
(** Term-level {!subst_self}. *)

val subst_self : assign list -> form -> form
(** Replace every [Var (Self, f)] assigned by the list with its term —
    the post-state predicate of a single mover whose neighbors are
    unchanged.  Assignment terms are pre-state terms, so the substitution
    is exact (no capture: [Self] terms contain no binders to collide
    with). *)

val well_formed : ir -> string list
(** Static scoping lint, [[]] = clean: every [Var]/[Param]/assign target
    refers to a declared field or parameter, [Nbr] occurs only under a
    neighborhood quantifier, rule names are unique, range bounds are
    closed (no fields). *)

(** {2 The SDR transformer} *)

val compose_sdr : spec -> spec
(** The IR twin of [Ssreset_core.Sdr.Make]: the whole composed [I ∘ SDR]
    system of an input-layer spec carrying the §3.5 interface.  Fields
    [st : Status{C,RB,RF}] and [d : Int] precede the input's fields;
    params and ranges are the input's plus [MaxD >= 0] and
    [d ∈ [0, MaxD+1)].  Rules SDR-RB, SDR-RF, SDR-C, SDR-R (RB and R
    append the input's [reset]) come first, then every input rule with
    its guard conjoined with [P_Clean], in the engine's rule order.
    [P_reset] at a neighbor is the input's [P_reset] with every input
    field re-sited at [Nbr] (exact: [P_reset] reads only [Self]).
    Legitimacy is [P_Clean ∧ P_ICorrect]; the ["wave-completion"] rank
    (RB = 2, RF = 1, C = 0, covering SDR-RF and SDR-C) backs the
    [comp.*] obligations.  The name is the input's plus
    ["-sdr-composed"].
    The input's fields must not be named [st] or [d].
    @raise Invalid_argument when the input lacks [sp_p_icorrect],
    [sp_p_reset] or [sp_reset]. *)
