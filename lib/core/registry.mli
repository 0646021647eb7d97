(** The single source of truth for the paper's experiments.

    [nuop experiment] dispatches through this list; adding an entry here
    is all it takes to appear there, in the nuop-bench/1 artifact and in
    its completeness check ({!Artifact.check}). *)

type entry = {
  name : string;  (** CLI name, e.g. ["fig9"] *)
  description : string;
  run : Config.t -> Report.doc;
}

val all : entry list
(** In presentation order: tables, figures, ablations. *)

val find : string -> entry option
(** Case-insensitive, matching the ISA and Device registry
    conventions. *)

val names : string list

val select : string list -> entry list
(** The entries the names request, in the caller's order; [all] (any
    case) stands for {!all}.  Lookup is case-insensitive like {!find}; a
    miss raises [Invalid_argument] listing every known experiment
    name. *)
