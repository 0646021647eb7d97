(* nuop-rpc/1: the NDJSON request/response schema.

   Parsing is total — every malformed input collapses to a typed error
   value carrying whatever request id could still be recovered, so the
   server can always answer with a correlatable response line and a
   protocol violation can never surface as an exception in a worker. *)

let schema = "nuop-rpc/1"

type op = Compile | Score | Devices | Stats | Ping

let op_name = function
  | Compile -> "compile"
  | Score -> "score"
  | Devices -> "devices"
  | Stats -> "stats"
  | Ping -> "ping"

let known_ops = [ Compile; Score; Devices; Stats; Ping ]

let op_of_string s =
  List.find_opt (fun o -> op_name o = String.lowercase_ascii s) known_ops

type error_kind =
  | Bad_request
  | Unsupported
  | Overloaded
  | Timeout
  | Draining
  | Internal

let kind_name = function
  | Bad_request -> "bad_request"
  | Unsupported -> "unsupported"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Draining -> "draining"
  | Internal -> "internal"

type err = { kind : error_kind; message : string }

let err kind fmt = Printf.ksprintf (fun message -> { kind; message }) fmt

type request = {
  id : Njson.t;
  op : op;
  deadline_ms : float option;
  body : Njson.t;
}

(* ---------- responses ---------- *)

(* Responses are compact single lines with a fixed field order, so a
   given (id, payload) pair always renders to identical bytes whatever
   worker produced it. *)

let response_ok ~id result =
  Njson.to_string ~indent:0
    (Njson.Obj [ ("id", id); ("ok", Njson.Bool true); ("result", result) ])

let response_error ~id { kind; message } =
  Njson.to_string ~indent:0
    (Njson.Obj
       [
         ("id", id);
         ("ok", Njson.Bool false);
         ( "error",
           Njson.Obj
             [
               ("kind", Njson.String (kind_name kind));
               ("message", Njson.String message);
             ] );
       ])

(* ---------- body accessors ---------- *)

let str_field ?default body key =
  match Njson.member key body with
  | None | Some Njson.Null -> (
    match default with
    | Some d -> Ok d
    | None -> Error (err Bad_request "missing required string field %S" key))
  | Some (Njson.String s) -> Ok s
  | Some _ -> Error (err Bad_request "field %S must be a string" key)

let int_field ?default body key =
  match Njson.member key body with
  | None | Some Njson.Null -> (
    match default with
    | Some d -> Ok d
    | None -> Error (err Bad_request "missing required integer field %S" key))
  | Some (Njson.Int i) -> Ok i
  | Some _ -> Error (err Bad_request "field %S must be an integer" key)

let bool_field ?default body key =
  match Njson.member key body with
  | None | Some Njson.Null -> (
    match default with
    | Some d -> Ok d
    | None -> Error (err Bad_request "missing required boolean field %S" key))
  | Some (Njson.Bool b) -> Ok b
  | Some _ -> Error (err Bad_request "field %S must be a boolean" key)

let opt_str_field body key =
  match Njson.member key body with
  | None | Some Njson.Null -> Ok None
  | Some (Njson.String s) -> Ok (Some s)
  | Some _ -> Error (err Bad_request "field %S must be a string" key)

(* ---------- request parsing ---------- *)

let parse line =
  match Njson.of_string_result line with
  | Error msg -> Error (Njson.Null, err Bad_request "request is not valid JSON (%s)" msg)
  | Ok json -> (
    let id = Option.value ~default:Njson.Null (Njson.member "id" json) in
    match json with
    | Njson.Obj _ -> (
      match Njson.member "op" json with
      | None -> Error (id, err Bad_request "missing required string field \"op\"")
      | Some (Njson.String s) -> (
        match op_of_string s with
        | None ->
          Error
            ( id,
              err Unsupported "unknown op %S (known: %s)" s
                (String.concat ", " (List.map op_name known_ops)) )
        | Some op -> (
          match Njson.member "deadline_ms" json with
          | None | Some Njson.Null -> Ok { id; op; deadline_ms = None; body = json }
          | Some v -> (
            match Njson.to_float_value v with
            | Some ms when Float.is_finite ms ->
              Ok { id; op; deadline_ms = Some ms; body = json }
            | Some _ | None ->
              Error (id, err Bad_request "field \"deadline_ms\" must be a finite number"))))
      | Some _ -> Error (id, err Bad_request "field \"op\" must be a string"))
    | _ -> Error (Njson.Null, err Bad_request "request must be a JSON object"))
