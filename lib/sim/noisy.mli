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
(** The density runner: after each gate, its depolarizing channel, then
    T1/T2 damping on the acting qubits for the gate's duration (the
    paper's Aer-style model). *)

val output_probabilities : noise_model -> Qcir.Circuit.t -> float array
(** Final probabilities of {!run}, including classical readout error. *)
