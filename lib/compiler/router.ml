(* SWAP-insertion routing.

   Greedy shortest-path router: logical qubits start at the placement;
   before each two-qubit gate whose operands are not adjacent, SWAPs move
   one operand along a shortest path until adjacency.  The emitted SWAPs
   are application-level gates — the decomposition stage lowers them to
   hardware gates (1 gate when the instruction set has a native SWAP,
   typically 3 otherwise), which is exactly the effect the paper's R5/G7
   sets exploit.

   Both walk directions cost the same number of SWAPs for the current
   gate, but they leave different layouts behind.  The router scores each
   direction by the SWAPs the next two-qubit gate touching either operand
   would then need, breaking ties toward cheaper edges when an
   [edge_cost] (e.g. calibrated error rates) is supplied, and toward
   walking the first operand otherwise. *)

type routed = {
  circuit : Qcir.Circuit.t;  (** on device qubits, all 2Q gates adjacent *)
  swap_count : int;
  final_layout : int array;  (** logical -> device qubit after execution *)
}

(* The swap chains realizing each direction for a shortest path
   p0..p_{k}: walking the first operand (at p0) emits
   (p0,p1)...(p_{k-2},p_{k-1})'s prefix, walking the second operand (at
   p_k) emits the suffix in reverse. *)
let chain_first path =
  let n = Array.length path in
  List.init (n - 2) (fun i -> (path.(i), path.(i + 1)))

let chain_second path =
  let n = Array.length path in
  List.init (n - 2) (fun i -> (path.(n - 1 - i), path.(n - 2 - i)))

let route ?edge_cost ~topology ~placement circuit =
  let n_logical = Qcir.Circuit.n_qubits circuit in
  assert (Array.length placement = n_logical);
  Array.iter
    (fun p -> assert (p >= 0 && p < Device.Topology.n_qubits topology))
    placement;
  let layout = Array.copy placement in
  (* device -> logical inverse map (-1 = unoccupied) *)
  let inverse = Array.make (Device.Topology.n_qubits topology) (-1) in
  Array.iteri (fun l p -> inverse.(p) <- l) layout;
  let out = ref (Qcir.Circuit.empty (Device.Topology.n_qubits topology)) in
  let swap_count = ref 0 in
  let emit gate qs = out := Qcir.Circuit.add_gate !out gate qs in
  let apply_swap_on layout inverse (pa, pb) =
    let la = inverse.(pa) and lb = inverse.(pb) in
    if la >= 0 then layout.(la) <- pb;
    if lb >= 0 then layout.(lb) <- pa;
    inverse.(pa) <- lb;
    inverse.(pb) <- la
  in
  let instrs = Array.of_list (Qcir.Circuit.instrs circuit) in
  (* SWAPs the next two-qubit gate involving [la] or [lb] would need
     under a candidate layout (0 when there is none). *)
  let future_swaps index la lb layout =
    let rec find k =
      if k >= Array.length instrs then 0
      else
        let qs = Qcir.Instr.qubits instrs.(k) in
        if
          Array.length qs = 2
          && (qs.(0) = la || qs.(1) = la || qs.(0) = lb || qs.(1) = lb)
        then
          max 0 (Device.Topology.distance topology layout.(qs.(0)) layout.(qs.(1)) - 1)
        else find (k + 1)
    in
    find (index + 1)
  in
  let chain_cost chain =
    match edge_cost with
    | None -> 0.0
    | Some cost -> List.fold_left (fun acc e -> acc +. cost e) 0.0 chain
  in
  Array.iteri
    (fun index instr ->
      let qs = Qcir.Instr.qubits instr in
      match Array.length qs with
      | 1 -> emit (Qcir.Instr.gate instr) [| layout.(qs.(0)) |]
      | 2 ->
        let la = qs.(0) and lb = qs.(1) in
        if not (Device.Topology.are_adjacent topology layout.(la) layout.(lb)) then begin
          let path =
            Array.of_list (Device.Topology.shortest_path topology layout.(la) layout.(lb))
          in
          let first = chain_first path and second = chain_second path in
          let evaluate chain =
            let l = Array.copy layout and inv = Array.copy inverse in
            List.iter (apply_swap_on l inv) chain;
            future_swaps index la lb l
          in
          let ff = evaluate first and fs = evaluate second in
          let chain =
            if fs < ff then second
            else if ff < fs then first
            else if chain_cost second < chain_cost first -. 1e-15 then second
            else first
          in
          List.iter
            (fun (pa, pb) ->
              emit Gates.Gate.swap [| pa; pb |];
              incr swap_count;
              apply_swap_on layout inverse (pa, pb))
            chain
        end;
        assert (Device.Topology.are_adjacent topology layout.(la) layout.(lb));
        emit (Qcir.Instr.gate instr) [| layout.(la); layout.(lb) |]
      | _ -> invalid_arg "Router.route: gates beyond two qubits unsupported")
    instrs;
  { circuit = !out; swap_count = !swap_count; final_layout = layout }
