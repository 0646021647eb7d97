(** Quantum circuit IR: a qubit count plus an ordered instruction list. *)

type t

val empty : int -> t
(** [empty n] is the empty circuit on [n] qubits (n >= 1). *)

val n_qubits : t -> int
val length : t -> int

val add : t -> Instr.t -> t
(** Raises [Invalid_argument] if an instruction addresses a qubit outside
    the circuit. *)

val add_gate : t -> Gates.Gate.t -> int array -> t
val instrs : t -> Instr.t list
val of_instrs : int -> Instr.t list -> t
val append : t -> t -> t

val iter : (Instr.t -> unit) -> t -> unit
val fold : ('a -> Instr.t -> 'a) -> 'a -> t -> 'a

val map_instrs : (Instr.t -> Instr.t list) -> t -> t
(** Replace each instruction by a list (used by decomposition passes). *)

val two_qubit_count : t -> int
val one_qubit_count : t -> int
val count_gate_name : t -> string -> int

val depth : t -> int
(** Greedy ASAP scheduling depth. *)

val two_qubit_depth : t -> int
(** Depth counting only two-qubit instructions. *)

val gate_name_census : t -> (string * int) list
(** Gate-name histogram, sorted by name. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
