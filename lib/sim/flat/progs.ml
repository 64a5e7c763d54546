module Sym = Ssreset_ir.Sym
module Csr = Ssreset_graph.Csr
module Specs = Ssreset_ir.Specs

type entry = {
  pname : string;
  describe : string;
  spec : Sym.spec;
  params_of_n : int -> (string * int) list;
}

let entries =
  [
    {
      pname = "unison-sdr";
      describe = "composed U\xe2\x88\x98SDR (status/distance/clock)";
      spec = Sym.compose_sdr Specs.unison_input_spec;
      params_of_n = Specs.unison_sdr_params_of_n;
    };
    {
      pname = "tail-unison";
      describe = "self-contained tail-biased unison";
      spec = Specs.tail_unison_spec;
      params_of_n = Specs.tail_unison_params_of_n;
    };
    {
      pname = "min-unison";
      describe = "self-contained min-repair unison";
      spec = Specs.min_unison_spec;
      params_of_n = Specs.min_unison_params_of_n;
    };
  ]

let find name = List.find_opt (fun e -> String.equal e.pname name) entries

let build e csrg = Flat.compile ~csr:csrg ~params:(e.params_of_n (Csr.n csrg)) e.spec

let init_ground p =
  Array.iter
    (fun (field, _) ->
      for u = 0 to Flat.n p - 1 do
        Flat.set_int p ~field u 0
      done)
    (Flat.fields p)

(* Per field: name, kind and, for an int field, its declared range —
   resolved once, so the per-node loops below allocate nothing. *)
let field_plan p =
  let params = Flat.params p in
  let ranges =
    List.map
      (fun (f, lo, hi) ->
        (f, (Sym.eval_closed ~params lo, Sym.eval_closed ~params hi)))
      (Flat.spec p).Sym.sp_ir.Sym.ranges
  in
  Array.map
    (fun (field, kind) -> (field, kind, List.assoc_opt field ranges))
    (Flat.fields p)

let scramble_node p plan ~rng u =
  for i = 0 to Array.length plan - 1 do
    let field, kind, range = plan.(i) in
    match ((kind : Flat.kind), range) with
    | Flat.KEnum cs, _ ->
        Flat.set_int p ~field u (Random.State.int rng (Array.length cs))
    | Flat.KBool, _ -> Flat.set_int p ~field u (Random.State.int rng 2)
    | Flat.KInt, Some (lo, hi) when hi > lo ->
        Flat.set_int p ~field u (lo + Random.State.full_int rng (hi - lo))
    | Flat.KInt, _ -> ()
  done

let perturb p ~rng k =
  let n = Flat.n p in
  let plan = field_plan p in
  let seen = Bytes.make n '\000' in
  let picked = ref 0 in
  while !picked < min k n do
    let u = Random.State.full_int rng n in
    if Bytes.get seen u = '\000' then begin
      Bytes.set seen u '\001';
      scramble_node p plan ~rng u;
      incr picked
    end
  done

let init_random p ~rng =
  let plan = field_plan p in
  for u = 0 to Flat.n p - 1 do
    scramble_node p plan ~rng u
  done

let outcome_string (o : Ssreset_sim.Engine.outcome) =
  match o with
  | Ssreset_sim.Engine.Stabilized -> "stabilized"
  | Ssreset_sim.Engine.Terminal -> "terminal"
  | Ssreset_sim.Engine.Step_limit -> "step-limit"

let digest p (r : Flat.result) =
  Printf.sprintf "outcome=%s steps=%d moves=%d rounds=%d state=%x"
    (outcome_string r.Flat.outcome) r.Flat.steps r.Flat.moves r.Flat.rounds
    (Flat.checksum p)
