
type ty = TInt | TBool | TEnum of string * string list
type site = Self | Nbr

type term =
  | Num of int
  | Bool of bool
  | Param of string
  | Var of site * string
  | Add of term * term
  | Sub of term * term
  | Neg of term
  | Ite of form * term * term
  | Ctor of string
  | Min_nbr of form * term * term
  | Mex_nbr of form * term
  | Count_nbr of form

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
  | Exists_nbr of form

type assign = string * term
type rule = { rule : string; guard : form; assigns : assign list }
type param = { pname : string; lower : int option }

type ir = {
  ir_name : string;
  fields : (string * ty) list;
  params : param list;
  ranges : (string * term * term) list;
  rules : rule list;
}

type cert_spec = { cs_name : string; cs_rules : string list; cs_local : term }

type rank_spec = {
  rk_name : string;
  rk_rules : string list;
  rk_components : term list;
}

type spec = {
  sp_ir : ir;
  sp_legitimate : form option;
  sp_p_icorrect : form option;
  sp_p_reset : form option;
  sp_reset : assign list option;
  sp_cert : cert_spec option;
  sp_rank : rank_spec option;
}

let spec_of_ir ir =
  { sp_ir = ir;
    sp_legitimate = None;
    sp_p_icorrect = None;
    sp_p_reset = None;
    sp_reset = None;
    sp_cert = None;
    sp_rank = None }

(* --- values and evaluation ------------------------------------------- *)

type value = VInt of int | VBool of bool | VEnum of string

let value_equal a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VBool x, VBool y -> x = y
  | VEnum x, VEnum y -> String.equal x y
  | _ -> false

let pp_value ppf = function
  | VInt i -> Fmt.int ppf i
  | VBool b -> Fmt.bool ppf b
  | VEnum c -> Fmt.string ppf c

exception Ill_formed of string

let ill fmt = Fmt.kstr (fun m -> raise (Ill_formed m)) fmt

type venv = {
  ve_params : (string * int) list;
  ve_self : (string * value) list;
  ve_nbrs : (string * value) list array;
  ve_cur : int option;
}

let lookup fields f =
  match List.assoc_opt f fields with
  | Some v -> v
  | None -> ill "unknown field %s" f

let as_int = function
  | VInt i -> i
  | v -> ill "expected an integer, got %a" pp_value v

let rec eval_term_env env = function
  | Num i -> VInt i
  | Bool b -> VBool b
  | Param p -> (
      match List.assoc_opt p env.ve_params with
      | Some v -> VInt v
      | None -> ill "unknown parameter %s" p)
  | Var (Self, f) -> lookup env.ve_self f
  | Var (Nbr, f) -> (
      match env.ve_cur with
      | Some i -> lookup env.ve_nbrs.(i) f
      | None -> ill "Nbr field %s outside a neighborhood quantifier" f)
  | Add (a, b) ->
      VInt (as_int (eval_term_env env a) + as_int (eval_term_env env b))
  | Sub (a, b) ->
      VInt (as_int (eval_term_env env a) - as_int (eval_term_env env b))
  | Neg a -> VInt (-as_int (eval_term_env env a))
  | Ite (c, a, b) ->
      if eval_form_env env c then eval_term_env env a else eval_term_env env b
  | Ctor c -> VEnum c
  | Min_nbr (filt, body, dflt) ->
      let best = ref None in
      for i = 0 to Array.length env.ve_nbrs - 1 do
        let e = { env with ve_cur = Some i } in
        if eval_form_env e filt then begin
          let v = as_int (eval_term_env e body) in
          match !best with
          | Some b when b <= v -> ()
          | _ -> best := Some v
        end
      done;
      (match !best with Some v -> VInt v | None -> eval_term_env env dflt)
  | Mex_nbr (filt, body) ->
      (* Least c >= 0 such that no qualifying neighbor's body equals c.
         At most [deg] neighbors qualify, so the answer is <= deg. *)
      let used = ref [] in
      for i = 0 to Array.length env.ve_nbrs - 1 do
        let e = { env with ve_cur = Some i } in
        if eval_form_env e filt then
          used := as_int (eval_term_env e body) :: !used
      done;
      let c = ref 0 in
      while List.mem !c !used do
        incr c
      done;
      VInt !c
  | Count_nbr filt ->
      let k = ref 0 in
      for i = 0 to Array.length env.ve_nbrs - 1 do
        if eval_form_env { env with ve_cur = Some i } filt then incr k
      done;
      VInt !k

and eval_form_env env = function
  | Const b -> b
  | Not f -> not (eval_form_env env f)
  | And fs -> List.for_all (eval_form_env env) fs
  | Or fs -> List.exists (eval_form_env env) fs
  | Imp (a, b) -> (not (eval_form_env env a)) || eval_form_env env b
  | Eq (a, b) -> value_equal (eval_term_env env a) (eval_term_env env b)
  | Le (a, b) -> as_int (eval_term_env env a) <= as_int (eval_term_env env b)
  | Lt (a, b) -> as_int (eval_term_env env a) < as_int (eval_term_env env b)
  | Forall_nbr f ->
      let ok = ref true in
      for i = 0 to Array.length env.ve_nbrs - 1 do
        if !ok then ok := eval_form_env { env with ve_cur = Some i } f
      done;
      !ok
  | Exists_nbr f ->
      let hit = ref false in
      for i = 0 to Array.length env.ve_nbrs - 1 do
        if not !hit then hit := eval_form_env { env with ve_cur = Some i } f
      done;
      !hit

let env ~params ~self ~nbrs =
  { ve_params = params; ve_self = self; ve_nbrs = nbrs; ve_cur = None }

let eval_term ~params ~self ~nbrs t = eval_term_env (env ~params ~self ~nbrs) t
let eval_form ~params ~self ~nbrs f = eval_form_env (env ~params ~self ~nbrs) f
let eval_closed ~params t = as_int (eval_term ~params ~self:[] ~nbrs:[||] t)

let eval_rule_enabled ~params ~self ~nbrs r =
  eval_form ~params ~self ~nbrs r.guard

let eval_rule_apply ~params ~fields ~self ~nbrs r =
  let e = env ~params ~self ~nbrs in
  List.map
    (fun (f, _) ->
      match List.assoc_opt f r.assigns with
      | Some t -> (f, eval_term_env e t)
      | None -> (f, lookup self f))
    fields

let rec subst_self_term assigns = function
  | (Num _ | Bool _ | Param _ | Ctor _ | Var (Nbr, _)) as t -> t
  | Var (Self, f) as t -> (
      match List.assoc_opt f assigns with Some t' -> t' | None -> t)
  | Add (a, b) -> Add (subst_self_term assigns a, subst_self_term assigns b)
  | Sub (a, b) -> Sub (subst_self_term assigns a, subst_self_term assigns b)
  | Neg a -> Neg (subst_self_term assigns a)
  | Ite (c, a, b) ->
      Ite
        ( subst_self_form assigns c,
          subst_self_term assigns a,
          subst_self_term assigns b )
  | Min_nbr (filt, body, dflt) ->
      Min_nbr
        ( subst_self_form assigns filt,
          subst_self_term assigns body,
          subst_self_term assigns dflt )
  | Mex_nbr (filt, body) ->
      Mex_nbr (subst_self_form assigns filt, subst_self_term assigns body)
  | Count_nbr filt -> Count_nbr (subst_self_form assigns filt)

and subst_self_form assigns = function
  | Const _ as f -> f
  | Not f -> Not (subst_self_form assigns f)
  | And fs -> And (List.map (subst_self_form assigns) fs)
  | Or fs -> Or (List.map (subst_self_form assigns) fs)
  | Imp (a, b) -> Imp (subst_self_form assigns a, subst_self_form assigns b)
  | Eq (a, b) -> Eq (subst_self_term assigns a, subst_self_term assigns b)
  | Le (a, b) -> Le (subst_self_term assigns a, subst_self_term assigns b)
  | Lt (a, b) -> Lt (subst_self_term assigns a, subst_self_term assigns b)
  | Forall_nbr f -> Forall_nbr (subst_self_form assigns f)
  | Exists_nbr f -> Exists_nbr (subst_self_form assigns f)

let subst_self assigns f = subst_self_form assigns f

(* --- static lint ------------------------------------------------------ *)

let well_formed ir =
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun m -> errors := m :: !errors) fmt in
  let field_ok f = List.mem_assoc f ir.fields in
  let param_ok p = List.exists (fun q -> q.pname = p) ir.params in
  let rec walk_term ~ctx ~depth ~allow_fields = function
    | Num _ | Bool _ | Ctor _ -> ()
    | Param p -> if not (param_ok p) then err "%s: unknown parameter %s" ctx p
    | Var (site, f) ->
        if not allow_fields then err "%s: field %s in a closed term" ctx f
        else if not (field_ok f) then err "%s: unknown field %s" ctx f
        else if site = Nbr && depth = 0 then
          err "%s: Nbr field %s outside a neighborhood quantifier" ctx f
    | Add (a, b) | Sub (a, b) ->
        walk_term ~ctx ~depth ~allow_fields a;
        walk_term ~ctx ~depth ~allow_fields b
    | Neg a -> walk_term ~ctx ~depth ~allow_fields a
    | Ite (c, a, b) ->
        walk_form ~ctx ~depth ~allow_fields c;
        walk_term ~ctx ~depth ~allow_fields a;
        walk_term ~ctx ~depth ~allow_fields b
    | Min_nbr (filt, body, dflt) ->
        walk_form ~ctx ~depth:(depth + 1) ~allow_fields filt;
        walk_term ~ctx ~depth:(depth + 1) ~allow_fields body;
        walk_term ~ctx ~depth ~allow_fields dflt
    | Mex_nbr (filt, body) ->
        walk_form ~ctx ~depth:(depth + 1) ~allow_fields filt;
        walk_term ~ctx ~depth:(depth + 1) ~allow_fields body
    | Count_nbr filt -> walk_form ~ctx ~depth:(depth + 1) ~allow_fields filt
  and walk_form ~ctx ~depth ~allow_fields = function
    | Const _ -> ()
    | Not f -> walk_form ~ctx ~depth ~allow_fields f
    | And fs | Or fs -> List.iter (walk_form ~ctx ~depth ~allow_fields) fs
    | Imp (a, b) ->
        walk_form ~ctx ~depth ~allow_fields a;
        walk_form ~ctx ~depth ~allow_fields b
    | Eq (a, b) | Le (a, b) | Lt (a, b) ->
        walk_term ~ctx ~depth ~allow_fields a;
        walk_term ~ctx ~depth ~allow_fields b
    | Forall_nbr f | Exists_nbr f ->
        walk_form ~ctx ~depth:(depth + 1) ~allow_fields f
  in
  let names = List.map (fun r -> r.rule) ir.rules in
  if List.length (List.sort_uniq compare names) <> List.length names then
    err "%s: duplicate rule names" ir.ir_name;
  List.iter
    (fun r ->
      let ctx = Printf.sprintf "%s/%s" ir.ir_name r.rule in
      walk_form ~ctx:(ctx ^ " guard") ~depth:0 ~allow_fields:true r.guard;
      List.iter
        (fun (f, t) ->
          if not (field_ok f) then err "%s: assign to unknown field %s" ctx f;
          walk_term ~ctx:(ctx ^ " assign " ^ f) ~depth:0 ~allow_fields:true t)
        r.assigns)
    ir.rules;
  List.iter
    (fun (f, lo, hi) ->
      let ctx = Printf.sprintf "%s range %s" ir.ir_name f in
      if not (field_ok f) then err "%s: unknown field" ctx;
      walk_term ~ctx ~depth:0 ~allow_fields:false lo;
      walk_term ~ctx ~depth:0 ~allow_fields:false hi)
    ir.ranges;
  List.rev !errors


(* --- the SDR transformer ---------------------------------------------- *)

let compose_sdr input =
  let ir = input.sp_ir in
  let need what = function
    | Some x -> x
    | None ->
        invalid_arg
          (Printf.sprintf "Sym.compose_sdr(%s): no %s" ir.ir_name what)
  in
  let p_icorrect = need "sp_p_icorrect" input.sp_p_icorrect
  and reset_s = need "sp_p_reset" input.sp_p_reset
  and reset = need "sp_reset" input.sp_reset in
  (* [P_reset] reads only [Self], so re-siting every input field at the
     bound neighbor is exact. *)
  let reset_b =
    subst_self (List.map (fun (f, _) -> (f, Var (Nbr, f))) ir.fields) reset_s
  in
  let st_s = Var (Self, "st") and st_b = Var (Nbr, "st") in
  let d_s = Var (Self, "d") and d_b = Var (Nbr, "d") in
  let c_C = Ctor "C" and c_RB = Ctor "RB" and c_RF = Ctor "RF" in
  let p_rb = And [ Eq (st_s, c_C); Exists_nbr (Eq (st_b, c_RB)) ] in
  let p_rf =
    And
      [ Eq (st_s, c_RB);
        reset_s;
        Forall_nbr
          (Or
             [ And [ Eq (st_b, c_RB); Le (d_b, d_s) ];
               And [ Eq (st_b, c_RF); reset_b ] ]) ]
  in
  (* ok(s) of P_C, sited at self and at the bound neighbor. *)
  let ok p_reset st d =
    And [ p_reset; Or [ And [ Eq (st, c_RF); Le (d_s, d) ]; Eq (st, c_C) ] ]
  in
  let p_c =
    And
      [ Eq (st_s, c_RF);
        ok reset_s st_s d_s;
        Forall_nbr (ok reset_b st_b d_b) ]
  in
  let p_r1 =
    And [ Eq (st_s, c_C); Not reset_s; Exists_nbr (Eq (st_b, c_RF)) ]
  in
  let p_r2 = And [ Not (Eq (st_s, c_C)); Not reset_s ] in
  let p_correct = Or [ Not (Eq (st_s, c_C)); p_icorrect ] in
  let p_up = And [ Not p_rb; Or [ p_r1; p_r2; Not p_correct ] ] in
  let p_clean = And [ Eq (st_s, c_C); Forall_nbr (Eq (st_b, c_C)) ] in
  (* default unreachable: P_RB guarantees an RB neighbor *)
  let min_rb = Min_nbr (Eq (st_b, c_RB), d_b, Num 0) in
  let composed =
    { ir_name = ir.ir_name ^ "-sdr-composed";
      fields =
        ("st", TEnum ("Status", [ "C"; "RB"; "RF" ])) :: ("d", TInt)
        :: ir.fields;
      params = ir.params @ [ { pname = "MaxD"; lower = Some 0 } ];
      ranges = ir.ranges @ [ ("d", Num 0, Add (Param "MaxD", Num 1)) ];
      rules =
        [ { rule = "SDR-RB";
            guard = p_rb;
            assigns = ("st", c_RB) :: ("d", Add (min_rb, Num 1)) :: reset };
          { rule = "SDR-RF"; guard = p_rf; assigns = [ ("st", c_RF) ] };
          { rule = "SDR-C"; guard = p_c; assigns = [ ("st", c_C) ] };
          { rule = "SDR-R";
            guard = p_up;
            assigns = ("st", c_RB) :: ("d", Num 0) :: reset } ]
        @ List.map (fun r -> { r with guard = And [ p_clean; r.guard ] })
            ir.rules }
  in
  (* RB = 2, RF = 1, C = 0 at each process: SDR-RF and SDR-C strictly
     decrease the mover's component; input rules write only input fields,
     so they are rank-silent.  SDR-RB and SDR-R restart waves (they raise
     the rank by design) and stay uncovered. *)
  let wave =
    Ite (Eq (st_s, c_RB), Num 2, Ite (Eq (st_s, c_RF), Num 1, Num 0))
  in
  { (spec_of_ir composed) with
    sp_legitimate = Some (And [ p_clean; p_icorrect ]);
    sp_rank =
      Some
        { rk_name = "wave-completion";
          rk_rules = [ "SDR-RF"; "SDR-C" ];
          rk_components = [ wave ] } }
