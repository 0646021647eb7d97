(** Fig 10: Sycamore instruction-set reliability study. *)

val doc : ?cfg:Config.t -> unit -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
