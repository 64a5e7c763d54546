module Algorithm = Ssreset_sim.Algorithm
module Daemon = Ssreset_sim.Daemon
module Graph = Ssreset_graph.Graph

include Ssreset_ir.Sym

(* --- instances -------------------------------------------------------- *)

module type INSTANCE = sig
  type state

  val spec : spec
  val param_values : (string * int) list
  val algorithm : state Algorithm.t
  val graph : Graph.t
  val domain : int -> state list
  val encode : state -> (string * value) list
  val is_legitimate : (state array -> bool) option
end

type instance = (module INSTANCE)

let make_instance (type s) ~spec ~params
    ~(algorithm : s Algorithm.t) ~graph ~domain ~encode ?is_legitimate () :
    instance =
  (module struct
    type state = s

    let spec = spec
    let param_values = params
    let algorithm = algorithm
    let graph = graph
    let domain = domain
    let encode = encode
    let is_legitimate = is_legitimate
  end)

(* --- mismatch accounting ---------------------------------------------- *)

type mismatch = {
  where : string;
  rules : string list;
  detail : string;
  count : int;
}

type diff = {
  views : int;
  steps : int;
  daemons : int;
  mismatches : mismatch list;
}

let diff_ok d = d.mismatches = []

let pp_mismatch ppf m =
  Fmt.pf ppf "[%s] %a — %d occurrence(s), e.g. %s" m.where
    Fmt.(list ~sep:(any ", ") string)
    m.rules m.count m.detail

let sort_mismatches ms =
  List.sort (fun a b -> compare (a.where, a.rules) (b.where, b.rules)) ms

let merge_diffs ds =
  let table = Hashtbl.create 16 in
  List.iter
    (fun d ->
      List.iter
        (fun m ->
          match Hashtbl.find_opt table (m.where, m.rules) with
          | None -> Hashtbl.add table (m.where, m.rules) m
          | Some prior ->
              Hashtbl.replace table (m.where, m.rules)
                { prior with count = prior.count + m.count })
        d.mismatches)
    ds;
  { views = List.fold_left (fun acc d -> acc + d.views) 0 ds;
    steps = List.fold_left (fun acc d -> acc + d.steps) 0 ds;
    daemons = List.fold_left (fun acc d -> acc + d.daemons) 0 ds;
    mismatches =
      Hashtbl.fold (fun _ m acc -> m :: acc) table [] |> sort_mismatches }

(* A recorder with one witness per (where, rules) and summed counts. *)
let recorder () =
  let table = Hashtbl.create 16 in
  let record ~where ~rules detail =
    let rules = List.sort_uniq compare rules in
    match Hashtbl.find_opt table (where, rules) with
    | Some (_, count) -> incr count
    | None -> Hashtbl.add table (where, rules) (detail (), ref 1)
  in
  let dump () =
    Hashtbl.fold
      (fun (where, rules) (detail, count) acc ->
        { where; rules; detail; count = !count } :: acc)
      table []
    |> sort_mismatches
  in
  (record, dump)

(* --- view-space differential ----------------------------------------- *)

let same_post ir a b =
  List.for_all (fun (f, _) -> value_equal (lookup a f) (lookup b f)) ir.fields

let space_total dims =
  Array.fold_left (fun acc d -> acc * Array.length d) 1 dims

let decode dims idx =
  let digits = Array.make (Array.length dims) 0 in
  let rest = ref idx in
  Array.iteri
    (fun i d ->
      let len = Array.length d in
      digits.(i) <- !rest mod len;
      rest := !rest / len)
    dims;
  digits

let pp_valuation ppf vals =
  Fmt.pf ppf "{%a}"
    Fmt.(list ~sep:(any " ") (pair ~sep:(any "=") string pp_value))
    vals

let run_views (type s) ~max_views_per_process
    (module I : INSTANCE with type state = s) =
  let ir = I.spec.sp_ir in
  let (record, dump) = recorder () in
  List.iter
    (fun e -> record ~where:"static" ~rules:[] (fun () -> e))
    (well_formed ir);
  let concrete_names =
    List.map (fun r -> r.Algorithm.rule_name) I.algorithm.Algorithm.rules
  and ir_names = List.map (fun r -> r.rule) ir.rules in
  if concrete_names <> ir_names then
    record ~where:"static" ~rules:ir_names (fun () ->
        Fmt.str "IR rules [%a] do not match algorithm rules [%a]"
          Fmt.(list ~sep:(any "; ") string)
          ir_names
          Fmt.(list ~sep:(any "; ") string)
          concrete_names);
  (* Pairs comparable by name, independent of order mismatches above. *)
  let pairs =
    List.filter_map
      (fun (r : s Algorithm.rule) ->
        List.find_opt (fun sr -> sr.rule = r.Algorithm.rule_name) ir.rules
        |> Option.map (fun sr -> (r, sr)))
      I.algorithm.Algorithm.rules
  in
  let n = Graph.n I.graph in
  let pp_view ppf (v : s Algorithm.view) =
    Fmt.pf ppf "@[<h>self=%a nbrs=[%a]@]" I.algorithm.Algorithm.pp
      v.Algorithm.state
      Fmt.(array ~sep:(any " ") I.algorithm.Algorithm.pp)
      v.Algorithm.nbrs
  in
  (* Seed-domain states must satisfy the declared ranges: the emitted
     range axioms are assumptions, so a domain state outside them would
     make the SMT obligations vacuously strong. *)
  let closed = eval_closed ~params:I.param_values in
  for u = 0 to n - 1 do
    List.iter
      (fun s ->
        let self = I.encode s in
        List.iter
          (fun (f, lo, hi) ->
            let v = as_int (lookup self f) in
            if v < closed lo || v >= closed hi then
              record ~where:"range" ~rules:[] (fun () ->
                  Fmt.str "domain state %a of process %d has %s = %d \
                           outside the declared range"
                    I.algorithm.Algorithm.pp s u f v))
          ir.ranges)
      (I.domain u)
  done;
  let views = ref 0 in
  for u = 0 to n - 1 do
    let nbrs = Graph.neighbors I.graph u in
    let dims =
      Array.init
        (1 + Array.length nbrs)
        (fun i ->
          Array.of_list (I.domain (if i = 0 then u else nbrs.(i - 1))))
    in
    let total = space_total dims in
    let count = min total max_views_per_process in
    let stride = if total <= count then 1 else total / count in
    for k = 0 to count - 1 do
      let digits = decode dims (k * stride) in
      let view =
        { Algorithm.state = dims.(0).(digits.(0));
          nbrs =
            Array.init (Array.length nbrs) (fun i ->
                dims.(i + 1).(digits.(i + 1))) }
      in
      incr views;
      let self = I.encode view.Algorithm.state in
      let enc_nbrs = Array.map I.encode view.Algorithm.nbrs in
      List.iter
        (fun ((r : s Algorithm.rule), sr) ->
          match
            let concrete = r.Algorithm.guard view in
            let symbolic =
              eval_rule_enabled ~params:I.param_values ~self ~nbrs:enc_nbrs
                sr
            in
            if concrete <> symbolic then
              record ~where:"views" ~rules:[ sr.rule ] (fun () ->
                  Fmt.str "guard disagrees (OCaml %b, IR %b) on %a" concrete
                    symbolic pp_view view)
            else if concrete then begin
              let post = I.encode (r.Algorithm.action view) in
              let sym_post =
                eval_rule_apply ~params:I.param_values ~fields:ir.fields
                  ~self ~nbrs:enc_nbrs sr
              in
              if not (same_post ir post sym_post) then
                record ~where:"views" ~rules:[ sr.rule ] (fun () ->
                    Fmt.str "post-state disagrees (OCaml %a, IR %a) on %a"
                      pp_valuation post pp_valuation sym_post pp_view view);
              (* Ranking differential: on every enabled view of a covered
                 rule, the claimed lexicographic rank must be bounded below
                 by 0 on both sides of the move and strictly decrease for
                 the mover — the concrete shadow of the rank-decrease SMT
                 obligations ({!Obligation}).  Components read [Self]
                 fields only, so the mover's tuple is all that changes. *)
              (match I.spec.sp_rank with
              | Some rk when List.mem sr.rule rk.rk_rules ->
                  let tuple st =
                    List.map
                      (fun c ->
                        as_int
                          (eval_term ~params:I.param_values ~self:st
                             ~nbrs:[||] c))
                      rk.rk_components
                  in
                  let pre_t = tuple self and post_t = tuple post in
                  let rec lex_lt a b =
                    match (a, b) with
                    | [], [] -> false
                    | x :: xs, y :: ys ->
                        x < y || (x = y && lex_lt xs ys)
                    | _ -> false
                  in
                  if
                    List.exists (fun v -> v < 0) pre_t
                    || List.exists (fun v -> v < 0) post_t
                  then
                    record ~where:"rank" ~rules:[ sr.rule ] (fun () ->
                        Fmt.str
                          "rank %s not bounded below (pre [%a], post [%a]) \
                           on %a"
                          rk.rk_name
                          Fmt.(list ~sep:(any " ") int)
                          pre_t
                          Fmt.(list ~sep:(any " ") int)
                          post_t pp_view view)
                  else if not (lex_lt post_t pre_t) then
                    record ~where:"rank" ~rules:[ sr.rule ] (fun () ->
                        Fmt.str
                          "rank %s does not strictly decrease (pre [%a], \
                           post [%a]) on %a"
                          rk.rk_name
                          Fmt.(list ~sep:(any " ") int)
                          pre_t
                          Fmt.(list ~sep:(any " ") int)
                          post_t pp_view view)
              | _ -> ())
            end
          with
          | () -> ()
          | exception Ill_formed msg ->
              record ~where:"views" ~rules:[ sr.rule ] (fun () ->
                  Fmt.str "IR evaluation failed: %s on %a" msg pp_view view))
        pairs
    done
  done;
  { views = !views; steps = 0; daemons = 0; mismatches = dump () }

let differential_views ?(max_views_per_process = 2000) (inst : instance) =
  let (module I) = inst in
  run_views ~max_views_per_process (module I)

(* --- daemon-driven differential --------------------------------------- *)

let run_daemons (type s) ~max_steps ~seeds
    (module I : INSTANCE with type state = s) =
  let ir = I.spec.sp_ir in
  let (record, dump) = recorder () in
  let g = I.graph in
  let n = Graph.n g in
  let domains = Array.init n (fun u -> Array.of_list (I.domain u)) in
  let rule_by_name name =
    List.find_opt (fun sr -> sr.rule = name) ir.rules
  in
  let steps = ref 0 in
  let daemons = Daemon.registry () in
  List.iter
    (fun (dname, (daemon : Daemon.t)) ->
      let where = "daemon " ^ dname in
      List.iter
        (fun seed ->
          let rng =
            Random.State.make [| 0x5347; seed; Hashtbl.hash dname |]
          in
          let cfg =
            Array.init n (fun u ->
                domains.(u).(Random.State.int rng (Array.length domains.(u))))
          in
          (try
             let step = ref 0 in
             let continue = ref true in
             while !continue && !step < max_steps do
               let views = Algorithm.views g cfg in
               let enc = Array.map I.encode cfg in
               let enc_view u =
                 ( enc.(u),
                   Array.map (fun v -> enc.(v)) (Graph.neighbors g u) )
               in
               (* Enabled set (process + first enabled rule name), both ways. *)
               let concrete =
                 List.filter_map
                   (fun u ->
                     Algorithm.enabled_rule I.algorithm views.(u)
                     |> Option.map (fun (r : s Algorithm.rule) ->
                            (u, r.Algorithm.rule_name)))
                   (List.init n Fun.id)
               in
               let symbolic =
                 List.filter_map
                   (fun u ->
                     let self, nbrs = enc_view u in
                     List.find_opt
                       (fun sr ->
                         eval_rule_enabled ~params:I.param_values ~self ~nbrs
                           sr)
                       ir.rules
                     |> Option.map (fun sr -> (u, sr.rule)))
                   (List.init n Fun.id)
               in
               if concrete <> symbolic then
                 record ~where
                   ~rules:(List.sort_uniq compare (List.map snd concrete))
                   (fun () ->
                     Fmt.str
                       "enabled set disagrees at step %d (OCaml %a, IR %a)"
                       !step
                       Fmt.(
                         list ~sep:(any " ")
                           (pair ~sep:(any ":") int string))
                       concrete
                       Fmt.(
                         list ~sep:(any " ")
                           (pair ~sep:(any ":") int string))
                       symbolic);
               (* Legitimacy predicate cross-check, when both sides have one. *)
               (match (I.is_legitimate, I.spec.sp_legitimate) with
               | Some concrete_legit, Some form ->
                   let sym_legit =
                     try
                       Array.for_all Fun.id
                         (Array.init n (fun u ->
                              let self, nbrs = enc_view u in
                              eval_form ~params:I.param_values ~self ~nbrs
                                form))
                     with Ill_formed msg ->
                       record ~where:"legitimate" ~rules:[] (fun () -> msg);
                       concrete_legit cfg
                   in
                   if sym_legit <> concrete_legit cfg then
                     record ~where:"legitimate" ~rules:[] (fun () ->
                         Fmt.str
                           "legitimacy disagrees at step %d under %s \
                            (OCaml %b, IR form %b)"
                           !step dname (concrete_legit cfg) sym_legit)
               | _ -> ());
               match concrete with
               | [] -> continue := false
               | _ ->
                   let enabled = List.map fst concrete in
                   let ctx =
                     { Daemon.step = !step;
                       graph = g;
                       enabled;
                       rule_name = (fun u -> List.assoc u concrete) }
                   in
                   let selection = daemon.Daemon.select rng ctx in
                   Daemon.check_selection ctx selection;
                   (* Composite atomicity: all movers act on the pre-state. *)
                   let updates =
                     List.map
                       (fun u ->
                         let r =
                           Option.get
                             (Algorithm.enabled_rule I.algorithm views.(u))
                         in
                         let post = r.Algorithm.action views.(u) in
                         (match rule_by_name r.Algorithm.rule_name with
                         | None -> ()
                         | Some sr ->
                             let self, nbrs = enc_view u in
                             let sym_post =
                               eval_rule_apply ~params:I.param_values
                                 ~fields:ir.fields ~self ~nbrs sr
                             in
                             let enc_post = I.encode post in
                             if not (same_post ir enc_post sym_post) then
                               record ~where ~rules:[ sr.rule ] (fun () ->
                                   Fmt.str
                                     "mover %d post-state disagrees at step \
                                      %d (OCaml %a, IR %a)"
                                     u !step pp_valuation enc_post
                                     pp_valuation sym_post));
                         (u, post))
                       selection
                   in
                   List.iter (fun (u, s) -> cfg.(u) <- s) updates;
                   incr step;
                   incr steps
             done
           with Ill_formed msg ->
             record ~where ~rules:[] (fun () ->
                 Fmt.str "IR evaluation failed: %s" msg)))
        seeds)
    daemons;
  { views = 0;
    steps = !steps;
    daemons = List.length daemons;
    mismatches = dump () }

let differential_daemons ?(max_steps = 50) ?(seeds = [ 0; 1 ])
    (inst : instance) =
  let (module I) = inst in
  run_daemons ~max_steps ~seeds (module I)

let check ?max_views_per_process ?max_steps inst =
  merge_diffs
    [ differential_views ?max_views_per_process inst;
      differential_daemons ?max_steps inst ]
