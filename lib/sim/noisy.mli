(** Noisy circuit execution on the exact density simulator (the paper's
    Aer-style noise model: depolarizing + T1/T2 damping + readout). *)

type noise_model = {
  twoq_error : int -> Qcir.Instr.t -> float;
  oneq_error : int -> float;
  readout_error : int -> float;
  t1 : int -> float;
  t2 : int -> float;
  duration_1q : float;
  duration_2q : float;
}

val ideal : noise_model

val run : noise_model -> Qcir.Circuit.t -> Density.t
(** Acting-qubits-only decoherence (the cheap approximation). *)

val model_schedule : noise_model -> Qcir.Circuit.t -> Schedule.t
(** The default timed executable: ASAP moments timed by the model's two
    device-wide duration scalars. *)

val run_scheduled : ?schedule:Schedule.t -> noise_model -> Qcir.Circuit.t -> Density.t
(** Schedule-aware execution over the shared {!Schedule.t}: decoherence
    acts on every qubit — idle ones included — for each moment's
    duration.  [schedule] defaults to {!model_schedule}; the compiler
    passes its calibrated per-gate-type schedule instead. *)

val output_probabilities : noise_model -> Qcir.Circuit.t -> float array
(** Final probabilities of {!run}, including classical readout error. *)
