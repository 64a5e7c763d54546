let schema = "ssreset-trace-v1"

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
  moves_per_rule : (string * int) list;
  anomaly_count : int option;
}

type t = {
  system : string;
  family : string;
  n : int;
  seed : int;
  daemon : string;
  edges : (int * int) list;
  init_active : (int * string * int) list;
  steps : step list;
  rounds : round list;
  anomalies : anomaly list;
  summary : summary;
}

let proc ~ctx ~n name json =
  let p = Jsonl.int ~ctx name json in
  if p < 0 || p >= n then
    Jsonl.fail "%s: process %d out of range [0,%d)" ctx p n;
  p

let parse_manifest ~ctx json =
  (match Jsonl.string_opt "trace_schema" json with
  | Some s when s = schema -> ()
  | Some s -> Jsonl.fail "%s: trace_schema %S, expected %S" ctx s schema
  | None ->
      Jsonl.fail "%s: missing trace_schema (not an %s trace?)" ctx schema);
  let n = Jsonl.int ~ctx "n" json in
  if n <= 0 then Jsonl.fail "%s: n must be positive" ctx;
  let m = Jsonl.int ~ctx "m" json in
  let edges =
    List.map
      (function
        | Json.List [ a; b ] -> (
            match (Json.to_int_opt a, Json.to_int_opt b) with
            | Some u, Some v ->
                if u < 0 || u >= n || v < 0 || v >= n then
                  Jsonl.fail "%s: edge endpoint out of range" ctx;
                (u, v)
            | _ -> Jsonl.fail "%s: edge endpoints must be ints" ctx)
        | _ -> Jsonl.fail "%s: each edge must be a [u,v] pair" ctx)
      (Jsonl.list ~ctx "edges" json)
  in
  if List.length edges <> m then
    Jsonl.fail "%s: %d edges but m = %d" ctx (List.length edges) m;
  let system = Jsonl.string ~ctx "system" json in
  let family = Jsonl.string ~ctx "family" json in
  let seed = Jsonl.int ~ctx "seed" json in
  let daemon = Jsonl.string ~ctx "daemon" json in
  ( n,
    fun init_active steps rounds anomalies summary ->
      { system; family; n; seed; daemon; edges; init_active; steps; rounds;
        anomalies; summary } )

let parse_init ~ctx ~n json =
  List.map
    (fun entry ->
      let p = proc ~ctx ~n "p" entry in
      let st = Jsonl.string ~ctx "st" entry in
      if st <> "RB" && st <> "RF" then
        Jsonl.fail "%s: initial status %S is neither RB nor RF" ctx st;
      let d = Jsonl.int ~ctx "d" entry in
      if d < 0 then Jsonl.fail "%s: negative d" ctx;
      (p, st, d))
    (Jsonl.list ~ctx "active" json)

let parse_wave ~ctx ~n json =
  match Jsonl.opt Jsonl.string ~ctx "w" json with
  | None -> None
  | Some "init" -> Some Span.Init
  | Some "rf" -> Some Span.Feedback
  | Some "c" -> Some Span.Complete
  | Some "join" ->
      let parent = proc ~ctx ~n "parent" json in
      let d = Jsonl.int ~ctx "d" json in
      if d < 1 then Jsonl.fail "%s: join with d = %d < 1" ctx d;
      Some (Span.Join { parent; d })
  | Some other -> Jsonl.fail "%s: unknown wave tag %S" ctx other

let parse_step ~ctx ~n json =
  let index = Jsonl.int ~ctx "step" json in
  let movers =
    List.map
      (fun mv ->
        {
          p = proc ~ctx ~n "p" mv;
          rule = Jsonl.string ~ctx "rule" mv;
          wave = parse_wave ~ctx ~n mv;
        })
      (Jsonl.list ~ctx "movers" json)
  in
  if movers = [] then Jsonl.fail "%s: step with no movers" ctx;
  { index; movers }

let parse_anomaly ~ctx ~n json =
  List.iter
    (fun w ->
      ignore (Jsonl.int ~ctx:(ctx ^ " window") "step" w);
      ignore (proc ~ctx:(ctx ^ " window") ~n "p" w);
      ignore (Jsonl.string ~ctx:(ctx ^ " window") "rule" w))
    (Jsonl.list ~ctx "window" json);
  {
    monitor = Jsonl.string ~ctx "monitor" json;
    step = Jsonl.int ~ctx "step" json;
    process = Jsonl.opt (proc ~n) ~ctx "process" json;
    value = Jsonl.int ~ctx "value" json;
    bound = Jsonl.int ~ctx "bound" json;
  }

let parse_summary ~ctx json =
  {
    outcome = Jsonl.string ~ctx "outcome" json;
    rounds = Jsonl.int ~ctx "rounds" json;
    steps = Jsonl.int ~ctx "steps" json;
    moves = Jsonl.int ~ctx "moves" json;
    wall_s = Jsonl.float ~ctx "wall_s" json;
    moves_per_rule =
      Option.value ~default:[]
        (Jsonl.opt Jsonl.ints ~ctx "moves_per_rule" json);
    anomaly_count = Jsonl.opt Jsonl.int ~ctx "anomalies" json;
  }

let load_string ?(path = "<trace>") contents =
  let init_active = ref None in
  let steps_rev = ref [] in
  let rounds_rev = ref [] in
  let anomalies_rev = ref [] in
  let last_step = ref min_int and last_round = ref min_int in
  let init (n, _) ~ctx json =
    if !init_active <> None then Jsonl.fail "%s: duplicate init record" ctx;
    if !steps_rev <> [] || !rounds_rev <> [] then
      Jsonl.fail "%s: init record after step/round records" ctx;
    init_active := Some (parse_init ~ctx ~n json)
  in
  let step (n, _) ~ctx json =
    let s = parse_step ~ctx ~n json in
    if s.index <= !last_step then
      Jsonl.fail "%s: step %d not strictly increasing" ctx s.index;
    last_step := s.index;
    steps_rev := s :: !steps_rev
  in
  let round _ ~ctx json =
    let r = Jsonl.int ~ctx "round" json in
    if r <= !last_round then
      Jsonl.fail "%s: round %d not strictly increasing" ctx r;
    last_round := r;
    rounds_rev :=
      {
        round = r;
        steps = Jsonl.int ~ctx "steps" json;
        moves = Jsonl.int ~ctx "moves" json;
      }
      :: !rounds_rev
  in
  let anomaly (n, _) ~ctx json =
    anomalies_rev := parse_anomaly ~ctx ~n json :: !anomalies_rev
  in
  let finish (_, make) (summary : summary) =
    let steps = List.rev !steps_rev in
    if steps <> [] then begin
      let step_records = List.length steps in
      if step_records <> summary.steps then
        Jsonl.fail "%s: %d step records but summary says steps = %d" path
          step_records summary.steps;
      let movers =
        List.fold_left (fun acc s -> acc + List.length s.movers) 0 steps
      in
      if movers <> summary.moves then
        Jsonl.fail "%s: %d recorded movers but summary says moves = %d" path
          movers summary.moves
    end;
    let anomalies = List.rev !anomalies_rev in
    (match summary.anomaly_count with
    | Some c when c <> List.length anomalies ->
        Jsonl.fail "%s: summary says %d anomalies but %d anomaly records" path
          c (List.length anomalies)
    | _ -> ());
    make
      (Option.value ~default:[] !init_active)
      steps (List.rev !rounds_rev) anomalies summary
  in
  Jsonl.parse ~path ~manifest:parse_manifest
    ~records:
      [ ("init", init); ("step", step); ("round", round); ("anomaly", anomaly) ]
    ~summary:parse_summary ~finish contents

let load_file path = Result.bind (Jsonl.load_file path) (load_string ~path)

let manifest_extra graph =
  [ ("trace_schema", Json.String schema);
    ( "edges",
      Json.List
        (List.map
           (fun (u, v) -> Json.List [ Json.Int u; Json.Int v ])
           (Ssreset_graph.Graph.edges graph)) ) ]

let graph_of t = Ssreset_graph.Graph.make ~n:t.n ~edges:t.edges

let mover_pairs t =
  List.map
    (fun s -> (s.index, List.map (fun m -> (m.p, m.rule)) s.movers))
    t.steps

let span_of t =
  let span = Span.create ~n:t.n in
  Span.seed_active ~graph:(graph_of t) span
    (List.map (fun (p, _, d) -> (p, d)) t.init_active);
  List.iter
    (fun s ->
      Span.feed_step span ~step:s.index
        (List.filter_map
           (fun m -> Option.map (fun ev -> (m.p, ev)) m.wave)
           s.movers))
    t.steps;
  span
