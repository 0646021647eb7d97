(** The [nuop-bench/1] artifact: one JSON document for a run of
    registry experiments.

    It carries the schema, the UTC date, the scale, and per experiment
    its name, description, wall time ([seconds]), headline metrics and
    report blocks ({!Report.to_json}).  [nuop experiment --json] writes
    it through {!to_string}; [nuop artifact check] reads it back through
    {!check_file}. *)

val schema : string
(** ["nuop-bench/1"]. *)

type run = { entry : Registry.entry; doc : Report.doc; seconds : float }

val run : ?attrs:(string * string) list -> Config.t -> Registry.entry -> run
(** Build the entry's document under an [experiment.run] span (the
    experiment's name plus [attrs]); [seconds] is the span's wall time. *)

val to_string : scale:string -> run list -> string
(** The artifact, dated now (UTC), one entry per run in order, with a
    trailing newline. *)

val check : string -> (int, string) result
(** Check artifact text: it parses, has the schema, a [date], a [scale],
    and an [experiments] list whose entries each have a [name] and
    [seconds]; every registered experiment must be present.  [Ok n]
    counts the entries; [Error] names the first fault or the missing
    experiments. *)

val check_file : string -> (int, string) result
(** {!check} on a file's contents; an unreadable file is an [Error]. *)
