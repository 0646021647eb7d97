(** Quantum Fourier Transform circuits. *)

val circuit : int -> Qcir.Circuit.t
(** n Hadamards + n(n-1)/2 controlled-phase gates; bit-reversed output
    convention (no final SWAP network). *)

val with_input : int -> int -> Qcir.Circuit.t
(** [with_input n k] prepares the basis input (2k+1) mod 2^n with X
    gates, then applies [circuit n]: the k-th input of the Fig 9c/10c
    success studies. *)

val expected_state : n_qubits:int -> input:int -> Complex.t array
(** The ideal output amplitudes of [circuit n] applied to basis state
    |input>. *)

val controlled_phase_unitaries : int -> Linalg.Mat.t list
(** The distinct CZ(pi/2^t) unitaries appearing in an n-qubit QFT
    (Fig 8 characterization set). *)
