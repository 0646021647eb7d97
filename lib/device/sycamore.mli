(** Google Sycamore device model (54 qubits, grid connectivity).

    Gate error rates follow the distributions stated in Sec VI of the
    paper: SYC errors ~ N(0.62%, 0.24%), other types iid from the same
    distribution, all drawn from RNG seed 23. *)

val type_durations : (Gates.Gate_type.t * float) list
(** Per-type gate durations (seconds) written into every device
    instance: SYC at 12 ns up to SWAP at 78 ns (3x CZ).  Types not
    listed fall back to the 32 ns device scalar. *)

val device : unit -> Calibration.t
(** The full device: 54 qubits on a 6x9 grid, populated with S1-S7 plus
    SWAP (Table II's Google sets). *)

val line_device :
  ?vary:bool ->
  ?types:Gates.Gate_type.t list ->
  ?mu:float ->
  ?sigma:float ->
  ?oneq:float ->
  int ->
  Calibration.t
(** A k-qubit line with Sycamore's error model — the placement used for
    the 3-6 qubit benchmark simulations.  [vary:false] disables
    cross-type variation (Fig 10e); [types] replaces S1-S7 plus SWAP;
    [mu], [sigma] and [oneq] override the two-qubit error distribution
    and the one-qubit error rate (the Fig 7 and Fig 10(f) sweeps).
    Raises [Invalid_argument] with a message starting "qubits" unless
    2 <= k <= 30. *)
