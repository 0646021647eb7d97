(* The instruction sets studied in the paper (Table II).

   Every set implicitly includes arbitrary single-qubit rotations.  The
   Rigetti sets are subsets supportable with the XY family plus CZ; the
   Google sets are cumulative combinations of S1-S7 (+ SWAP). *)

open Gates

type t = { name : string; gate_types : Gate_type.t list }

let make name gate_types =
  if gate_types = [] then
    invalid_arg
      (Printf.sprintf "Isa.Set.make: %S has no gate types (every set needs at least one)"
         name);
  let rec check_distinct = function
    | [] -> ()
    | ty :: rest ->
      if List.exists (Gate_type.equal ty) rest then
        invalid_arg
          (Printf.sprintf "Isa.Set.make: %S lists gate type %S more than once" name
             (Gate_type.name ty));
      check_distinct rest
  in
  check_distinct gate_types;
  { name; gate_types }

let name t = t.name
let gate_types t = t.gate_types
let size t = List.length t.gate_types

let is_continuous t =
  List.exists Gate_type.is_family t.gate_types

let mem t ty = List.exists (Gate_type.equal ty) t.gate_types

(* Single two-qubit gate type sets. *)
let s1 = make "S1" [ Gate_type.s1 ]
let s2 = make "S2" [ Gate_type.s2 ]
let s3 = make "S3" [ Gate_type.s3 ]
let s4 = make "S4" [ Gate_type.s4 ]
let s5 = make "S5" [ Gate_type.s5 ]
let s6 = make "S6" [ Gate_type.s6 ]
let s7 = make "S7" [ Gate_type.s7 ]

(* Google combinations. *)
let g1 = make "G1" Gate_type.[ s1; s2 ]
let g2 = make "G2" Gate_type.[ s1; s2; s3 ]
let g3 = make "G3" Gate_type.[ s1; s2; s3; s4 ]
let g4 = make "G4" Gate_type.[ s1; s2; s3; s4; s5 ]
let g5 = make "G5" Gate_type.[ s1; s2; s3; s4; s5; s6 ]
let g6 = make "G6" Gate_type.[ s1; s2; s3; s4; s5; s6; s7 ]
let g7 = make "G7" Gate_type.[ s1; s2; s3; s4; s5; s6; s7; swap_type ]

(* Rigetti combinations (XY-family-supportable subsets). *)
let r1 = make "R1" Gate_type.[ s3; s4 ]
let r2 = make "R2" Gate_type.[ s2; s3; s4 ]
let r3 = make "R3" Gate_type.[ s2; s3; s4; s5 ]
let r4 = make "R4" Gate_type.[ s2; s3; s4; s5; s6 ]
let r5 = make "R5" Gate_type.[ s2; s3; s4; s5; s6; swap_type ]

(* Full continuous families. *)
let full_xy = make "Full_XY" [ Gate_type.Xy_family ]
let full_fsim = make "Full_fSim" [ Gate_type.Fsim_family ]

(* Extension: the continuous controlled-phase set of Lacroix et al.
   (Sec III), useful as a QAOA-specialized comparison point. *)
let full_cphase = make "Full_CZphi" [ Gate_type.Cphase_family ]

let google_singles = [ s1; s2; s3; s4; s5; s6; s7 ]
let google_multis = [ g1; g2; g3; g4; g5; g6; g7 ]
let rigetti_singles = [ s2; s3; s4; s5; s6 ]
let rigetti_multis = [ r1; r2; r3; r4; r5 ]

let all = google_singles @ google_multis @ rigetti_multis @ [ full_xy; full_fsim; full_cphase ]

let find name_str =
  let wanted = String.lowercase_ascii name_str in
  List.find_opt (fun t -> String.equal (String.lowercase_ascii t.name) wanted) all

let find_exn name_str =
  match find name_str with
  | Some t -> t
  | None ->
    invalid_arg
      (Printf.sprintf "Isa.Set.find_exn: unknown instruction set %S (known sets: %s)"
         name_str
         (String.concat ", " (List.map (fun t -> t.name) all)))
