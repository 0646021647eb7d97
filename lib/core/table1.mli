(** Table I: gate families, fidelity models and identity checks. *)

val doc : ?cfg:Config.t -> unit -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
