(** Fig 8: expressivity heatmaps over the fSim parameter space. *)

val doc : ?cfg:Config.t -> unit -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
