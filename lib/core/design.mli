(** The [design] experiment: beam-searched instruction sets from a
    candidate pool, reported as the expressivity-vs-calibration Pareto
    frontier next to the Table II baselines. *)

val doc : ?cfg:Config.t -> unit -> Report.doc
(** Build the experiment's report document (runs the search; calibration
    costs are for a 54-qubit grid). *)
