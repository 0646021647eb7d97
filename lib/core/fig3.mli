(** Fig 3: Aspen-8 ring calibration table. *)

val doc : ?cfg:Config.t -> unit -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
