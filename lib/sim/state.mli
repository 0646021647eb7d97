(** State-vector simulator on unboxed float arrays.

    Qubit [q] is bit [q] of the amplitude index (qubit 0 least
    significant). *)

open Linalg

type t

val max_qubits : int

val create : int -> t
(** |0...0> on n qubits. *)

val of_basis : int -> int -> t
(** [of_basis n k] is the computational basis state |k>. *)

val n_qubits : t -> int
val dim : t -> int
val copy : t -> t

val amplitude : t -> int -> Complex.t
val set_amplitude : t -> int -> Complex.t -> unit

val norm2 : t -> float
val normalize : t -> unit
val probability : t -> int -> float
val probabilities : t -> float array

val inner : t -> t -> Complex.t
val fidelity_pure : t -> t -> float
(** |<a|b>|^2. *)

val apply_matrix : t -> Mat.t -> int array -> unit
(** Apply a 2^k x 2^k matrix to the listed qubits; [qubits.(0)] is the
    most significant bit of the matrix index.  The matrix need not be
    unitary (the density simulator applies superoperators).  The kernel
    follows from k alone, and every kernel returns the same bits.

    @raise Invalid_argument naming the qubit for a qubit out of range
    or listed twice, and for a matrix that is not 2^k x 2^k; the state
    is untouched. *)

type nonzeros

(** A matrix prepared once for many applications, in the form its
    kernel reads. *)
type prepared = private
  | Real_x of float array
      (** A 4x4 whose imaginary parts are all zeros and whose entries off
          the diagonal and anti-diagonal are zero: its real entries
          (0,0) (0,3) (1,1) (1,2) (2,1) (2,2) (3,0) (3,3), for a real
          kernel. *)
  | Nonzeros of nonzeros
      (** Any other matrix: its nonzero entries, for the gather/scatter
          kernel. *)

val prepare : Mat.t -> prepared
(** The matrix's prepared form, a copy of the entries its kernel reads.
    The density simulator prepares each channel superoperator once per
    run. *)

val apply_prepared : t -> prepared -> int array -> unit
(** [apply_prepared t (prepare m) qubits] is [apply_matrix t m qubits],
    bit for bit, for finite states; it raises as {!apply_matrix} does,
    naming [State.apply_prepared]. *)

val apply_instr : t -> Qcir.Instr.t -> unit
val run_circuit : Qcir.Circuit.t -> t
val run_circuit_on : t -> Qcir.Circuit.t -> unit
