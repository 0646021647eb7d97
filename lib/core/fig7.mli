(** Fig 7: exact vs approximate decomposition vs error rate. *)

val doc : ?cfg:Config.t -> unit -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
