(* One circuit instruction: a gate applied to an ordered list of qubits. *)

type t = { gate : Gates.Gate.t; qubits : int array }

let make gate qubits =
  if Array.length qubits <> Gates.Gate.arity gate then
    invalid_arg
      (Printf.sprintf "Instr.make: gate %s has arity %d but got %d qubits"
         (Gates.Gate.name gate) (Gates.Gate.arity gate) (Array.length qubits));
  (* a pairwise scan: gates act on one or two qubits, and a table would
     allocate several times the instruction itself *)
  for i = 0 to Array.length qubits - 1 do
    let q = qubits.(i) in
    if q < 0 then invalid_arg "Instr.make: negative qubit index";
    for j = 0 to i - 1 do
      if qubits.(j) = q then invalid_arg "Instr.make: duplicate qubit"
    done
  done;
  { gate; qubits = Array.copy qubits }

let gate t = t.gate
let qubits t = Array.copy t.qubits
let arity t = Array.length t.qubits
let is_two_qubit t = arity t = 2

let uses_qubit t q = Array.exists (fun x -> x = q) t.qubits

let map_qubits f t =
  make t.gate (Array.map f t.qubits)

let pp ppf t =
  Fmt.pf ppf "%s %a" (Gates.Gate.name t.gate)
    Fmt.(array ~sep:(any ",") int)
    t.qubits
