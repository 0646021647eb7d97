(** Typed experiment report documents with text and JSON renderers.

    Drivers build a {!doc} through {!Builder} instead of printing;
    {!render_text} reproduces the historical terminal output byte for
    byte while {!to_json} powers the machine-readable bench artifacts. *)

type block =
  | Heading of string
  | Subheading of string
  | Table of { header : string list; rows : string list list }
  | Text of string  (** verbatim free text, printed as-is *)
  | Heatmap of {
      theta_axis : float list;
      phi_axis : float list;
      cells : float list list;  (** row [i] belongs to [theta_axis] element [i] *)
    }

type doc = {
  blocks : block list;
  metrics : (string * float) list;
      (** headline metrics surfaced at the top of the JSON artifact *)
}

(** Accumulates blocks in call order; the text rendering of the result is
    byte-identical to what direct printing of the same calls produced. *)
module Builder : sig
  type t

  val create : unit -> t
  val heading : t -> string -> unit
  val subheading : t -> string -> unit
  val table : t -> header:string list -> string list list -> unit
  val text : t -> string -> unit
  (** Verbatim text; consecutive fragments merge into one block. *)

  val textf : t -> ('a, unit, string, unit) format4 -> 'a

  val heatmap :
    t ->
    theta_axis:float list ->
    phi_axis:float list ->
    cell:(theta:float -> phi:float -> float) ->
    unit
  (** Samples [cell] over the grid at build time; the document stores the
      values, not the closure. *)

  val metric : t -> string -> float -> unit
  (** Record a headline metric (JSON only; no text rendering). *)

  val doc : t -> doc
end

val render_text : doc -> string
(** Byte-identical to the pre-document printed output. *)

val block_to_string : block -> string
(** One block rendered exactly as {!render_text} renders it inside a
    document; outputs made of a single table use it, so served responses
    embed CLI-identical text. *)

val print : doc -> unit
(** [print d] writes [render_text d] to stdout and flushes. *)

val to_json : ?name:string -> ?description:string -> ?seconds:float -> doc -> Njson.t
(** Structured form: name/description/wall-time (when given), the
    headline metrics object, and every block as a typed JSON node. *)

(** {1 Formatting helpers} *)

val f2 : float -> string
val f3 : float -> string
val f4 : float -> string
val heat_digit : float -> string

val fresh_path : string -> string
(** [fresh_path p] is [p] when no file exists there, else the first of
    [stem-2.ext], [stem-3.ext], ... that does not exist — artifact
    writers use it so a same-day rerun never silently overwrites an
    earlier artifact. *)
