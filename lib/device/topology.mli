(** Device connectivity graphs (undirected, qubits are [0, n)). *)

type t

val of_edges : int -> (int * int) list -> t
(** Raises [Invalid_argument] on self loops or out-of-range qubits;
    duplicate edges are ignored. *)

val canonical : int * int -> int * int
(** Order an edge as (low, high). *)

val n_qubits : t -> int
val neighbors : t -> int -> int list
val edges : t -> (int * int) list
val edge_count : t -> int
val are_adjacent : t -> int -> int -> bool

val ring : int -> t
val line : int -> t
val grid : int -> int -> t

val shortest_path : t -> int -> int -> int list
(** Path from src to dst inclusive.  Raises [Invalid_argument] naming
    the qubit pair when the two qubits lie in different connected
    components. *)

val distance : t -> int -> int -> int
(** Hop count of {!shortest_path}; raises the same [Invalid_argument] on
    disconnected pairs. *)

val is_connected : t -> bool

val find_line : t -> int -> int list option
(** A simple path of [k] distinct qubits, if one exists. *)

val edge_coloring : t -> ((int * int) * int) list
(** Greedy proper edge coloring; edges of one color share no qubit and
    can be calibrated in parallel. *)

val coloring_classes : t -> int
(** Number of colors the greedy coloring uses (parallel calibration
    batches). *)

val max_degree : t -> int
