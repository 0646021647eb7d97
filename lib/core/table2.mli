(** Table II: the instruction sets studied. *)

val doc : ?cfg:Config.t -> unit -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
