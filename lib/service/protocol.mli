(** The NDJSON request/response protocol (schema [nuop-rpc/1]).

    One JSON object per line in both directions.  A request carries an
    [id] (echoed verbatim in the response, [null] when absent), an [op]
    — one of [compile], [score], [devices], [stats], [ping] — an
    optional [deadline_ms], and op-specific parameters (circuit as QASM
    text or a generator spec, registry device name, stack options).  A
    response carries either a result document or a typed error; clients
    match responses to requests by [id], since a concurrent server
    completes jobs in whatever order its workers finish them. *)

val schema : string
(** ["nuop-rpc/1"]. *)

type op = Compile | Score | Devices | Stats | Ping

val op_name : op -> string
val op_of_string : string -> op option

type error_kind =
  | Bad_request  (** malformed JSON, unknown field value, bad QASM *)
  | Unsupported  (** an [op] outside the schema *)
  | Overloaded  (** bounded queue full — explicit backpressure *)
  | Timeout  (** [deadline_ms] elapsed before completion *)
  | Draining  (** server is shutting down and accepts no new work *)
  | Internal  (** execution raised an unexpected exception *)

val kind_name : error_kind -> string

type err = { kind : error_kind; message : string }

val err : error_kind -> ('a, unit, string, err) format4 -> 'a
(** [err kind fmt ...] builds an {!err} with a formatted message. *)

type request = {
  id : Njson.t;  (** echoed verbatim; [Null] when the field is absent *)
  op : op;
  deadline_ms : float option;
  body : Njson.t;  (** the whole request object, for op parameters *)
}

val parse : string -> (request, Njson.t * err) result
(** Parse one request line.  On failure the error carries whatever [id]
    could still be recovered ([Null] when the line is not even JSON) so
    the response remains correlatable.  Uses {!Njson.of_string_result}:
    malformed JSON yields a [Bad_request] locating the failure by line
    and column, never an exception. *)

val response_ok : id:Njson.t -> Njson.t -> string
(** One response line: [{"id":...,"ok":true,"result":...}]. *)

val response_error : id:Njson.t -> err -> string
(** One response line:
    [{"id":...,"ok":false,"error":{"kind":...,"message":...}}]. *)

(** {2 Body accessors} — shared by the op implementations. *)

val str_field : ?default:string -> Njson.t -> string -> (string, err) result
val int_field : ?default:int -> Njson.t -> string -> (int, err) result
val bool_field : ?default:bool -> Njson.t -> string -> (bool, err) result
val opt_str_field : Njson.t -> string -> (string option, err) result
