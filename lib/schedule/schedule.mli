(** Timed executables: ASAP moment schedules with start times and
    per-moment durations.

    The one shared timing representation of the stack: built from any
    {!Qcir.Circuit.t} plus a duration oracle, consumed by the compiler's
    schedule pass, the analytic ESP estimator and the CLI timeline
    printer. *)

type moment = {
  index : int;  (** 0-based moment number *)
  start : float;  (** seconds from circuit start *)
  duration : float;  (** longest instruction in the moment *)
  instrs : (int * Qcir.Instr.t) list;
      (** (instruction index, instruction) in program order *)
}

type t

val of_circuit : durations:(int -> Qcir.Instr.t -> float) -> Qcir.Circuit.t -> t
(** ASAP-pack the circuit into moments.  [durations index instr] is the
    wall-clock duration of one instruction (per-gate-type calibrated
    durations plug in here); a moment lasts as long as its longest
    instruction.  With uniform durations the moment count equals the
    circuit depth. *)

val uniform : duration_1q:float -> duration_2q:float -> int -> Qcir.Instr.t -> float
(** The two-scalar duration oracle (the pre-refactor device model).
    Raises [Invalid_argument] on gates beyond two qubits. *)

val n_qubits : t -> int
val moments : t -> moment list

val depth : t -> int
(** Moment count = critical-path depth of the executable. *)

val total_duration : t -> float
(** End of the last moment, in seconds. *)

val iter_moments : (moment -> unit) -> t -> unit

val busy_time : t -> int -> float
(** Total duration of the moments in which the qubit acts. *)

val idle_time : t -> int -> float
(** [total_duration - busy_time]: how long the qubit sits idle while
    other qubits work — the decoherence window ESP charges. *)

val instruction_count : t -> int

val pp : Format.formatter -> t -> unit
(** Timeline rendering: one row per moment with start, duration (ns) and
    instructions (the CLI's [compile --schedule] output). *)

val to_string : t -> string
