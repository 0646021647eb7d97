(** Analytic estimated success probability (ESP) of a timed executable:
    the product of per-instruction gate fidelities and per-qubit
    idle-time decoherence factors over a {!Schedule.t} — a
    constant-space stand-in for density-sim success on circuits beyond
    exponential simulation reach. *)

type t = {
  gate_fidelity : float;  (** prod over instructions of (1 - error) *)
  decoherence_factor : float;  (** prod over qubits of the idle-decay factor *)
  esp : float;  (** [gate_fidelity * decoherence_factor] *)
}

val estimate :
  twoq_errors:float array ->
  oneq_error:(int -> float) ->
  t1:(int -> float) ->
  t2:(int -> float) ->
  Schedule.t ->
  t
(** [twoq_errors] is indexed by instruction index (the compiler's
    per-instruction annotations); [oneq_error], [t1], [t2] are per qubit
    in the schedule's space.  Readout is left out, as density-sim state
    fidelities leave it out, so the differential suite compares like
    with like. *)

val qubit_decoherence : t1:float -> t2:float -> float -> float
(** The idle-decay factor of one qubit idling for the given time:
    [(1 - p_amp/2)(1 - p_phase/2)] with the damping probabilities of
    {!Sim.Channel.damping_params}'s conventions.  1.0 for infinite
    [t1]. *)
