type window = {
  index : int;
  at_step : int;
  steps : int;
  moves : int;
  wall_s : float;
  steps_per_s : float;
  moves_per_s : float;
  moves_per_rule : (string * int) list;
  gc_minor_words : int;
  gc_major_words : int;
}

type section = {
  ns : int;
  count : int;
  mean_ns : float;
  p50_ns : float;
  p90_ns : float;
  max_ns : int;
}

type summary = {
  steps : int;
  moves : int;
  wall_s : float;
  window_count : int;
  phases : (string * section) list;
  rules : (string * section) list;
  counters : (string * int) list;
  gauges : (string * float) list;
}

type t = {
  system : string;
  family : string;
  n : int;
  m : int;
  seed : int;
  daemon : string;
  window_steps : int;
  windows : window list;
  summary : summary;
}

let parse_manifest ~ctx json =
  (match Jsonl.string_opt "schema" json with
  | Some s when s = Prof.schema -> ()
  | Some s -> Jsonl.fail "%s: schema %S, expected %S" ctx s Prof.schema
  | None -> Jsonl.fail "%s: schema is missing or not a string" ctx);
  let system = Jsonl.string ~ctx "system" json in
  let family = Jsonl.string ~ctx "family" json in
  let n = Jsonl.int ~ctx "n" json in
  let m = Jsonl.int ~ctx "m" json in
  let seed = Jsonl.int ~ctx "seed" json in
  let daemon = Jsonl.string ~ctx "daemon" json in
  let window_steps = Jsonl.int ~ctx "window_steps" json in
  fun windows summary ->
    { system; family; n; m; seed; daemon; window_steps; windows; summary }

let parse_window ~ctx json =
  let w =
    {
      index = Jsonl.int ~ctx "index" json;
      at_step = Jsonl.int ~ctx "at_step" json;
      steps = Jsonl.int ~ctx "steps" json;
      moves = Jsonl.int ~ctx "moves" json;
      wall_s = Jsonl.float ~ctx "wall_s" json;
      steps_per_s = Jsonl.float ~ctx "steps_per_s" json;
      moves_per_s = Jsonl.float ~ctx "moves_per_s" json;
      moves_per_rule = Jsonl.ints ~ctx "moves_per_rule" json;
      gc_minor_words = Jsonl.int ~ctx "gc_minor_words" json;
      gc_major_words = Jsonl.int ~ctx "gc_major_words" json;
    }
  in
  if w.steps <= 0 then Jsonl.fail "%s: window covers %d steps" ctx w.steps;
  if w.wall_s < 0. then Jsonl.fail "%s: negative wall_s" ctx;
  if w.moves < w.steps then
    Jsonl.fail
      "%s: %d moves over %d steps (a step moves at least one process)" ctx
      w.moves w.steps;
  w

let parse_section ~ctx (name, json) =
  let ctx = Printf.sprintf "%s %S" ctx name in
  let s =
    {
      ns = Jsonl.int ~ctx "ns" json;
      count = Jsonl.int ~ctx "count" json;
      mean_ns = Jsonl.float ~ctx "mean_ns" json;
      p50_ns = Jsonl.float ~ctx "p50_ns" json;
      p90_ns = Jsonl.float ~ctx "p90_ns" json;
      max_ns = Jsonl.int ~ctx "max_ns" json;
    }
  in
  if s.ns < 0 || s.count < 0 then Jsonl.fail "%s: negative totals" ctx;
  (name, s)

let parse_summary ~ctx json =
  let metrics = Json.Obj (Jsonl.obj ~ctx "metrics" json) in
  {
    steps = Jsonl.int ~ctx "steps" json;
    moves = Jsonl.int ~ctx "moves" json;
    wall_s = Jsonl.float ~ctx "wall_s" json;
    window_count = Jsonl.int ~ctx "windows" json;
    phases =
      List.map (parse_section ~ctx:"phase") (Jsonl.obj ~ctx "phases" json);
    rules = List.map (parse_section ~ctx:"rule") (Jsonl.obj ~ctx "rules" json);
    counters = Jsonl.ints ~ctx:(ctx ^ " metrics") "counters" metrics;
    gauges = Jsonl.floats ~ctx:(ctx ^ " metrics") "gauges" metrics;
  }

let validate t =
  let ctx = "summary" in
  if t.summary.window_count <> List.length t.windows then
    Jsonl.fail "%s: windows field %d but %d window records" ctx
      t.summary.window_count (List.length t.windows);
  let wsteps = List.fold_left (fun a (w : window) -> a + w.steps) 0 t.windows in
  let wmoves = List.fold_left (fun a (w : window) -> a + w.moves) 0 t.windows in
  if wsteps > t.summary.steps then
    Jsonl.fail "%s: windows cover %d steps but the run had %d" ctx wsteps
      t.summary.steps;
  if wmoves > t.summary.moves then
    Jsonl.fail "%s: windows cover %d moves but the run had %d" ctx wmoves
      t.summary.moves;
  (* Every per-rule window delta must be covered by the summary counter —
     windows report [Metrics.diff]s, so the sum over windows can never
     exceed the final counter value. *)
  let per_rule = Hashtbl.create 8 in
  List.iter
    (fun w ->
      List.iter
        (fun (rule, d) ->
          if d < 0 then
            Jsonl.fail "window %d: negative delta for rule %s" w.index rule;
          Hashtbl.replace per_rule rule
            (d + Option.value ~default:0 (Hashtbl.find_opt per_rule rule)))
        w.moves_per_rule)
    t.windows;
  Hashtbl.iter
    (fun rule total ->
      match List.assoc_opt ("moves." ^ rule) t.summary.counters with
      | Some final when final >= total -> ()
      | Some final ->
          Jsonl.fail
            "%s: windows attribute %d moves to rule %s but the counter ends \
             at %d"
            ctx total rule final
      | None ->
          Jsonl.fail
            "%s: windows mention rule %s but no moves.%s counter exists" ctx
            rule rule)
    per_rule

let load_string ?(path = "<string>") body =
  let windows = ref [] in
  let next_index = ref 0 in
  let last_at_step = ref (-1) in
  let window _ ~ctx json =
    let w = parse_window ~ctx json in
    if w.index <> !next_index then
      Jsonl.fail "%s: window index %d, expected %d" ctx w.index !next_index;
    if w.at_step <= !last_at_step then
      Jsonl.fail "%s: at_step %d does not increase" ctx w.at_step;
    next_index := w.index + 1;
    last_at_step := w.at_step;
    windows := w :: !windows
  in
  let finish make summary =
    let t = make (List.rev !windows) summary in
    validate t;
    t
  in
  Jsonl.parse ~path ~manifest:parse_manifest
    ~records:[ ("window", window) ]
    ~summary:parse_summary ~finish body

let load_file path = Result.bind (Jsonl.load_file path) (load_string ~path)

let phase_total_ns t =
  List.fold_left (fun a (_, s) -> a + s.ns) 0 t.summary.phases
