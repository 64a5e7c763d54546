(** The JSONL record streams the telemetry layer writes ([ssreset-trace-v1],
    [ssreset-prof-v1]): one shared envelope, field accessors for their
    records (the lenient ones also serve single JSON documents), and the
    file loader.

    The envelope every stream obeys, enforced by {!parse}:

    - every nonblank line is one JSON object carrying a string [type];
    - the first record is the {e manifest}, and there is only one;
    - every other record type is one the reader knows;
    - exactly one {e summary}, and no record after it.

    Errors are [Error "path:line: …"] (or ["path: …"] for a missing
    manifest or summary). *)

exception Bad of string
(** Raised by the accessors and by {!fail}; {!parse} turns it into
    [Error]. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [fail fmt …] raises {!Bad} with the formatted message. *)

(** {2 Field accessors} *)

(** The lenient accessors are [None] when the field is absent or of
    another kind. *)

val int_opt : string -> Json.t -> int option
val float_opt : string -> Json.t -> float option
(** Ints widen to float. *)

val string_opt : string -> Json.t -> string option
val bool_opt : string -> Json.t -> bool option

val items : string -> Json.t -> Json.t list
(** The list field [name]; [[]] when it is absent or not a list. *)

(** The required accessors raise {!Bad} ["ctx: \"name\" is missing or not
    …"] when the field is absent or of the wrong kind. *)

val int : ctx:string -> string -> Json.t -> int
val float : ctx:string -> string -> Json.t -> float
(** Ints widen to float. *)

val string : ctx:string -> string -> Json.t -> string
val list : ctx:string -> string -> Json.t -> Json.t list
val obj : ctx:string -> string -> Json.t -> (string * Json.t) list

val ints : ctx:string -> string -> Json.t -> (string * int) list
(** An object field whose every value is an int. *)

val floats : ctx:string -> string -> Json.t -> (string * float) list
(** An object field whose every value is a number. *)

val opt :
  (ctx:string -> string -> Json.t -> 'a) ->
  ctx:string ->
  string ->
  Json.t ->
  'a option
(** [opt get ~ctx name json] is [None] when [name] is absent, and
    [Some (get ~ctx name json)] otherwise — a present field must still be
    well-formed. *)

(** {2 Streams} *)

val lines : string -> (int * string) list
(** The nonblank lines of a stream, with their 1-based line numbers. *)

val load_file : string -> (string, string) result
(** The whole file; [Error "path: reason"] when it cannot be read. *)

val parse :
  path:string ->
  manifest:(ctx:string -> Json.t -> 'm) ->
  records:(string * ('m -> ctx:string -> Json.t -> unit)) list ->
  summary:(ctx:string -> Json.t -> 's) ->
  finish:('m -> 's -> 'a) ->
  string ->
  ('a, string) result
(** [parse ~path ~manifest ~records ~summary ~finish contents] checks the
    envelope and hands each record to its parser: the manifest to
    [manifest] (which checks the schema key), the summary to [summary], and
    every other record to the handler [records] lists for its type, with
    the parsed manifest.  [ctx] is ["path:line"].  [finish] runs the
    reader's cross-checks on the parsed manifest and summary and builds the
    result.  Any {!Bad} raised along the way becomes [Error]. *)
