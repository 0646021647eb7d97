(** Seeded property-based testing with shrinking and deterministic
    replay: the one property framework of the test suite.  Each test
    executable keeps the properties of the layer it tests and builds
    them with {!test}; the generators and oracles that several layers
    share live here too.

    Built directly on {!Linalg.Rng} so every case is derived from one
    root seed via indexed substreams: case [i] of a run is
    [Rng.split (Rng.create seed) i], which makes any failure
    reproducible from the [(seed, case)] pair printed in the failure
    message, independent of how many cases ran before it.

    Environment overrides (read once, at first use):
    - [NUOP_PROPTEST_SEED]  — root seed for every property.
    - [NUOP_PROPTEST_COUNT] — case count for every property (overrides
      per-property counts; use to crank adversarial testing up or down
      without recompiling). *)

module Gen : sig
  type 'a t = Linalg.Rng.t -> 'a
  (** A generator draws a value from the given stream.  Generators are
      plain functions, so any ad-hoc sampling code composes directly. *)

  val return : 'a -> 'a t
  val map : ('a -> 'b) -> 'a t -> 'b t
  val map2 : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t
  val bind : 'a t -> ('a -> 'b t) -> 'b t
  val pair : 'a t -> 'b t -> ('a * 'b) t
  val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

  val bool : bool t
  val int_range : int -> int -> int t
  (** [int_range lo hi] is uniform on the inclusive range. *)

  val float_range : float -> float -> float t
  val angle : float t
  (** Uniform on [[-pi, pi]]. *)

  val choose : 'a t list -> 'a t
  val choosel : 'a list -> 'a t
  val list_of : len:int t -> 'a t -> 'a list t
  val array_of : len:int t -> 'a t -> 'a array t

  (** {2 Domain generators} *)

  val unitary : int -> Linalg.Mat.t t
  (** Haar-random [n x n] unitary. *)

  val su2 : Linalg.Mat.t t
  val su4 : Linalg.Mat.t t
  (** Haar-random special unitaries (det 1). *)

  val local_su4 : Linalg.Mat.t t
  (** [A (x) B] with Haar-random single-qubit factors — a CNOT-count-0
      two-qubit unitary. *)

  val gate_type : Gates.Gate_type.t t
  (** One of the paper's fixed instruction types or a continuous
      family. *)

  val fixed_gate_type : Gates.Gate_type.t t
  (** Fixed types only (S1..S7, SWAP, CNOT). *)

  val circuit : ?n_qubits:int -> ?max_length:int -> unit -> Qcir.Circuit.t t
  (** Random circuit over the QASM-exportable vocabulary (h, x, rx, rz,
      u3, cz, swap, SYC, iSWAP, sqrt_iSWAP, fsim, xy, cphase).  Default
      4 qubits, up to 12 instructions. *)
end

module Shrink : sig
  type 'a t = 'a -> 'a Seq.t
  (** Candidate smaller values, tried in order; the runner greedily
      re-shrinks from the first candidate that still fails. *)

  val nothing : 'a t
  val int : int t
  val float : float t
  val pair : 'a t -> 'b t -> ('a * 'b) t
  val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
  val list : 'a t -> 'a list t
  (** Drops elements one at a time, then shrinks elements in place. *)

  val circuit : Qcir.Circuit.t t
  (** Drops instructions one at a time — counterexamples shrink to a
      minimal instruction list. *)
end

type 'a arbitrary
(** A generator plus optional shrinker and printer. *)

val arbitrary :
  ?shrink:'a Shrink.t -> ?print:('a -> string) -> 'a Gen.t -> 'a arbitrary

exception Failed of string
(** Raised by {!check} with a fully formatted report: property name,
    root seed, failing case index, shrink count, printed counterexample
    and replay instructions. *)

val default_count : int
val default_seed : int

val check : ?count:int -> ?seed:int -> name:string -> 'a arbitrary -> ('a -> bool) -> unit
(** [check ~name arb prop] runs [prop] on [count] generated cases
    (default {!default_count}; the [NUOP_PROPTEST_COUNT] /
    [NUOP_PROPTEST_SEED] environment variables override both optional
    arguments).  A case fails if [prop] returns [false] or raises; the
    failure is shrunk to a (locally) minimal counterexample and reported
    via {!Failed}. *)

val test :
  ?count:int -> ?seed:int -> string -> 'a arbitrary -> ('a -> bool) -> unit Alcotest.test_case
(** {!check} as an alcotest case named after the property. *)

(** {2 Shared by several layers' properties} *)

val circuit : ?n_qubits:int -> ?max_length:int -> unit -> Qcir.Circuit.t arbitrary
(** {!Gen.circuit} (same defaults), shrunk by {!Shrink.circuit} and
    printed as a circuit listing. *)

val same_circuit : Qcir.Circuit.t -> Qcir.Circuit.t -> bool
(** Same width and instruction list: gate names compared without their
    printed parameters, qubits exactly, parameters within 1e-9. *)

val same_compiled : Compiler.Pipeline.compiled -> Compiler.Pipeline.compiled -> bool
(** {!same_circuit} on the compiled circuits, and exact equality of the
    error array, qubit map, final layout, SWAP and two-qubit counts,
    duration and critical depth. *)

val fast_nuop : Decompose.Nuop.options
(** NuOp cut down for property budgets: 3 starts, at most 3 layers,
    100 BFGS iterations. *)

val minor_words_per_call : n:int -> (unit -> unit) -> float
(** Minor-heap words [f] allocates per call, averaged over [n] calls
    after one warm-up call. *)

val with_temp_file : (string -> 'a) -> 'a
(** Run with the path of a fresh temporary file, removed afterwards. *)
