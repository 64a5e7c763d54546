(* First-order executable specs of the unison rule cores.  The registry
   differential ([Ssreset_check.Registry]) checks them against the OCaml
   algorithms view-by-view and under every daemon — rule-name alignment
   included, so the literal names below cannot drift; the obligation
   compiler turns the same IRs into unbounded-n SMT obligations.  The mod-K
   arithmetic is expressed with if-then-else ([({c}+1) mod K] is
   [ite (c = K-1) 0 (c+1)]), exact on the declared clock ranges. *)

let s_c = Sym.Var (Sym.Self, "c")
let s_b = Sym.Var (Sym.Nbr, "c")

let s_incmod t =
  Sym.Ite
    ( Sym.Eq (t, Sym.Sub (Sym.Param "K", Sym.Num 1)),
      Sym.Num 0,
      Sym.Add (t, Sym.Num 1) )

let s_decmod t =
  Sym.Ite
    ( Sym.Eq (t, Sym.Num 0),
      Sym.Sub (Sym.Param "K", Sym.Num 1),
      Sym.Sub (t, Sym.Num 1) )

(* P_Ok(u,v): v's clock is within one increment of u's (mod K). *)
let s_ring_ok =
  Sym.Or
    [ Sym.Eq (s_b, s_c); Sym.Eq (s_b, s_incmod s_c); Sym.Eq (s_b, s_decmod s_c) ]

(* P_Up(u): every neighbor is at u's value or one ahead. *)
let s_up = Sym.Or [ Sym.Eq (s_b, s_c); Sym.Eq (s_b, s_incmod s_c) ]

let tail_core_spec ~ir_name ~reset ~climb ~tick =
  let compatible =
    Sym.Or
      [ Sym.And [ Sym.Le (Sym.Num 0, s_b); s_ring_ok ];
        Sym.And [ Sym.Lt (s_b, Sym.Num 0); Sym.Le (s_c, Sym.Num 1) ] ]
  in
  let ir =
    { Sym.ir_name;
      fields = [ ("c", Sym.TInt) ];
      params =
        [ { Sym.pname = "K"; lower = Some 4 };
          { Sym.pname = "alpha"; lower = Some 1 } ];
      ranges = [ ("c", Sym.Neg (Sym.Param "alpha"), Sym.Param "K") ];
      rules =
        [ { Sym.rule = reset;
            guard =
              Sym.And
                [ Sym.Le (Sym.Num 0, s_c);
                  Sym.Exists_nbr (Sym.Not compatible) ];
            assigns = [ ("c", Sym.Neg (Sym.Param "alpha")) ] };
          { Sym.rule = climb;
            guard =
              Sym.And
                [ Sym.Lt (s_c, Sym.Num 0);
                  Sym.Forall_nbr (Sym.Le (s_c, s_b));
                  Sym.Or
                    [ Sym.Lt (s_c, Sym.Num (-1));
                      Sym.Forall_nbr (Sym.Le (s_b, Sym.Num 1)) ] ];
            assigns = [ ("c", Sym.Add (s_c, Sym.Num 1)) ] };
          { Sym.rule = tick;
            guard =
              Sym.And [ Sym.Le (Sym.Num 0, s_c); Sym.Forall_nbr s_up ];
            assigns = [ ("c", s_incmod s_c) ] } ] }
  in
  { (Sym.spec_of_ir ir) with
    Sym.sp_legitimate =
      Some (Sym.And [ Sym.Le (Sym.Num 0, s_c); Sym.Forall_nbr s_ring_ok ]);
    sp_cert =
      Some
        { Sym.cs_name = "climb-debt";
          cs_rules = [ climb ];
          cs_local = Sym.Ite (Sym.Lt (s_c, Sym.Num 0), Sym.Neg s_c, Sym.Num 0)
        };
    (* Same measure as the certificate, replayed through the global
       implicit-rankings pipeline: {!Obligation} additionally proves the
       multiset/lex step argument ([rank-step]) the pointwise
       cert-decrease obligations only sketch. *)
    sp_rank =
      Some
        { Sym.rk_name = "climb-debt";
          rk_rules = [ climb ];
          rk_components =
            [ Sym.Ite (Sym.Lt (s_c, Sym.Num 0), Sym.Neg s_c, Sym.Num 0) ] }
  }

let tail_unison_spec =
  tail_core_spec ~ir_name:"tail-unison" ~reset:"TU-reset" ~climb:"TU-climb"
    ~tick:"TU-tick"

let min_unison_spec =
  tail_core_spec ~ir_name:"min-unison" ~reset:"MU-zero" ~climb:"MU-climb"
    ~tick:"MU-tick"

(* The unison SDR input layer (Algorithm 2), with the full §3.5 reset
   interface: p_icorrect / p_reset / reset back the requirement
   obligations, and {!Sym.compose_sdr} derives the composed U∘SDR system
   from it.  The differential validates the IR
   against the {e bare} input algorithm — the composed transformer's
   correctness on top of it is the model checker's job. *)
let unison_input_spec =
  let ir =
    { Sym.ir_name = "unison";
      fields = [ ("c", Sym.TInt) ];
      params = [ { Sym.pname = "K"; lower = Some 2 } ];
      ranges = [ ("c", Sym.Num 0, Sym.Param "K") ];
      rules =
        [ { Sym.rule = "U-inc";
            guard = Sym.Forall_nbr s_up;
            assigns = [ ("c", s_incmod s_c) ] } ] }
  in
  { (Sym.spec_of_ir ir) with
    Sym.sp_legitimate = Some (Sym.Forall_nbr s_ring_ok);
    sp_p_icorrect = Some (Sym.Forall_nbr s_ring_ok);
    sp_p_reset = Some (Sym.Eq (s_c, Sym.Num 0));
    sp_reset = Some [ ("c", Sym.Num 0) ] }

let unison_sdr_params_of_n n = [ ("K", n + 2); ("MaxD", n) ]

let tail_unison_params_of_n n =
  [ ("K", max 4 ((2 * n) + 2)); ("alpha", max 1 n) ]

let min_unison_params_of_n n =
  [ ("K", max 4 ((n * n) + 1)); ("alpha", max 1 (n - 2)) ]

