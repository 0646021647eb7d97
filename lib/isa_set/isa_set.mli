(** The instruction sets of Table II. *)

type t

val make : string -> Gates.Gate_type.t list -> t
(** Raises [Invalid_argument] on an empty gate-type list: a set with no
    two-qubit types cannot decompose anything, and downstream scorers
    would silently fold over nothing.  Also raises [Invalid_argument],
    naming the set and the type, when a gate type (by name) is listed
    twice. *)

val name : t -> string
val gate_types : t -> Gates.Gate_type.t list
val size : t -> int
val is_continuous : t -> bool
val mem : t -> Gates.Gate_type.t -> bool

(** Single-type sets S1-S7. *)

val s1 : t
val s2 : t
val s3 : t
val s4 : t
val s5 : t
val s6 : t
val s7 : t

(** Google multi-type sets G1-G7 (G7 includes SWAP). *)

val g1 : t
val g2 : t
val g3 : t
val g4 : t
val g5 : t
val g6 : t
val g7 : t

(** Rigetti multi-type sets R1-R5 (R5 includes SWAP). *)

val r1 : t
val r2 : t
val r3 : t
val r4 : t
val r5 : t

val full_xy : t
val full_fsim : t

val full_cphase : t
(** Continuous controlled-phase set CZ(phi) (Lacroix et al.) — an
    extension beyond Table II used by the ablation bench. *)

val google_singles : t list
val google_multis : t list
val rigetti_singles : t list
val rigetti_multis : t list
val all : t list

val find : string -> t option
(** Case-insensitive lookup among {!all} ("g7" finds "G7"). *)

val find_exn : string -> t
(** Like {!find} but raises [Invalid_argument] with the list of known
    set names on a miss. *)
