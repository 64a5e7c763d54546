exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt
let find conv name json = Option.bind (Json.member name json) conv
let int_opt = find Json.to_int_opt
let float_opt = find Json.to_float_opt
let string_opt = find Json.to_string_opt
let bool_opt = find (function Json.Bool b -> Some b | _ -> None)
let list_opt = find (function Json.List l -> Some l | _ -> None)
let obj_opt = find (function Json.Obj fields -> Some fields | _ -> None)
let items name json = Option.value ~default:[] (list_opt name json)

let need get what ~ctx name json =
  match get name json with
  | Some v -> v
  | None -> fail "%s: %S is missing or not %s" ctx name what

let int = need int_opt "an int"
let float = need float_opt "a number"
let string = need string_opt "a string"
let list = need list_opt "a list"
let obj = need obj_opt "an object"

let entries conv what ~ctx name json =
  List.map
    (fun (key, v) ->
      match conv v with
      | Some x -> (key, x)
      | None -> fail "%s: %s.%s is not %s" ctx name key what)
    (obj ~ctx name json)

let ints = entries Json.to_int_opt "an int"
let floats = entries Json.to_float_opt "a number"

let opt get ~ctx name json =
  Option.map (fun _ -> get ~ctx name json) (Json.member name json)

let lines contents =
  String.split_on_char '\n' contents
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter (fun (_, line) -> String.trim line <> "")

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

let parse ~path ~manifest ~records ~summary ~finish contents =
  let parsed_manifest = ref None and parsed_summary = ref None in
  let record (lineno, line) =
    let ctx = Printf.sprintf "%s:%d" path lineno in
    let json =
      match Json.of_string line with
      | Ok json -> json
      | Error msg -> fail "%s: %s" ctx msg
    in
    if Option.is_some !parsed_summary then
      fail "%s: record after the summary" ctx;
    let ty =
      match string_opt "type" json with
      | Some ty -> ty
      | None -> fail "%s: record without a type" ctx
    in
    match (!parsed_manifest, ty) with
    | None, "manifest" -> parsed_manifest := Some (manifest ~ctx json)
    | None, _ -> fail "%s: first record must be the manifest, got %S" ctx ty
    | Some _, "manifest" -> fail "%s: duplicate manifest" ctx
    | Some _, "summary" -> parsed_summary := Some (summary ~ctx json)
    | Some m, _ -> (
        match List.assoc_opt ty records with
        | Some handle -> handle m ~ctx json
        | None -> fail "%s: unknown record type %S" ctx ty)
  in
  try
    List.iter record (lines contents);
    match (!parsed_manifest, !parsed_summary) with
    | None, _ -> fail "%s: empty stream (no manifest)" path
    | Some _, None -> fail "%s: no summary record" path
    | Some m, Some s -> Ok (finish m s)
  with Bad msg -> Error msg
