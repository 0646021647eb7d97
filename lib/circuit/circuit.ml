(* Quantum circuit IR: a qubit count plus an ordered instruction list.

   The builder keeps instructions in reverse for O(1) append; [instrs]
   materializes program order. *)

type t = { n_qubits : int; rev_instrs : Instr.t list; count : int }

let empty n_qubits =
  if n_qubits <= 0 then invalid_arg "Circuit.empty: need at least one qubit";
  { n_qubits; rev_instrs = []; count = 0 }

let n_qubits t = t.n_qubits
let length t = t.count

let add t instr =
  Array.iter
    (fun q ->
      if q >= t.n_qubits then
        invalid_arg
          (Printf.sprintf "Circuit.add: qubit %d out of range (n=%d)" q t.n_qubits))
    (Instr.qubits instr);
  { t with rev_instrs = instr :: t.rev_instrs; count = t.count + 1 }

let add_gate t gate qubits = add t (Instr.make gate qubits)

let instrs t = List.rev t.rev_instrs

let of_instrs n_qubits list = List.fold_left add (empty n_qubits) list

let append a b =
  if a.n_qubits <> b.n_qubits then invalid_arg "Circuit.append: qubit count mismatch";
  List.fold_left add a (instrs b)

let iter f t = List.iter f (instrs t)
let fold f init t = List.fold_left f init (instrs t)
let map_instrs f t = of_instrs t.n_qubits (List.concat_map f (instrs t))

let two_qubit_count t =
  fold (fun acc i -> if Instr.is_two_qubit i then acc + 1 else acc) 0 t

let one_qubit_count t =
  fold (fun acc i -> if Instr.arity i = 1 then acc + 1 else acc) 0 t

let count_gate_name t name =
  fold
    (fun acc i -> if String.equal (Gates.Gate.name (Instr.gate i)) name then acc + 1 else acc)
    0 t

(* Greedy ASAP scheduling depth: each instruction lands one step after the
   busiest of its qubits. *)
let depth t =
  let avail = Array.make t.n_qubits 0 in
  fold
    (fun d i ->
      let qs = Instr.qubits i in
      let start = Array.fold_left (fun m q -> max m avail.(q)) 0 qs in
      Array.iter (fun q -> avail.(q) <- start + 1) qs;
      max d (start + 1))
    0 t

let two_qubit_depth t =
  let avail = Array.make t.n_qubits 0 in
  fold
    (fun d i ->
      if Instr.is_two_qubit i then begin
        let qs = Instr.qubits i in
        let start = Array.fold_left (fun m q -> max m avail.(q)) 0 qs in
        Array.iter (fun q -> avail.(q) <- start + 1) qs;
        max d (start + 1)
      end
      else d)
    0 t

let gate_name_census t =
  let tbl = Hashtbl.create 16 in
  iter
    (fun i ->
      let name = Gates.Gate.name (Instr.gate i) in
      let cur = Option.value ~default:0 (Hashtbl.find_opt tbl name) in
      Hashtbl.replace tbl name (cur + 1))
    t;
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp ppf t =
  Fmt.pf ppf "@[<v>circuit %d qubits, %d instrs@," t.n_qubits t.count;
  iter (fun i -> Fmt.pf ppf "  %a@," Instr.pp i) t;
  Fmt.pf ppf "@]"

let to_string t = Fmt.str "%a" pp t
