(* The compiler's passes over a shared mutable context.

   The paper's toolflow (Fig 1) is one fixed sequence — place, route,
   NuOp-decompose with noise adaptivity — which this repo extends with
   compaction, a timed schedule and two optional peepholes.  Each stage
   is a [t]: a named mutation of a [Context.t] holding the circuit, the
   qubit maps, the calibration handle, the ISA, and the per-instruction
   error annotations.  [stack] is the one sequence; Pipeline runs it and
   records per-pass metrics.

   Stage contract (what each pass expects / establishes):
     placement      needs a logical circuit; fills [placement]
     route          needs [placement]; moves the circuit to device
                    qubits, sets [final_layout] and [swap_count]
     lower          device-space circuit; replaces application 2Q gates
                    by hardware gates, fills [errors]
     merge_oneq     any space; fuses adjacent 1Q runs into single U3s
     elide_trivial  any space; drops identity-up-to-phase gates
     compact        device space; renumbers onto the touched qubits,
                    sets [qubit_map] and [compacted]
     schedule       last; attaches the timed executable (Schedule.t over
                    calibrated durations) to [schedule] *)

open Linalg

type options = {
  nuop : Decompose.Nuop.options;
  approximate : bool;  (** Eq 2 approximate mode vs exact thresholded mode *)
  exact_threshold : float;
  adaptive : bool;  (** noise adaptivity across gate types *)
  optimize : bool;  (** run the peephole passes before compaction *)
}

let default_options =
  {
    nuop = Decompose.Nuop.default_options;
    approximate = true;
    exact_threshold = Decompose.Nuop.default_threshold;
    adaptive = true;
    optimize = false;
  }

module Context = struct
  type t = {
    device : Device.t;
    cal : Device.Calibration.t;  (** [Device.calibration device], cached *)
    isa : Isa.Set.t;
    options : options;
    n_logical : int;
    mutable placement : int array option;  (** logical -> device start qubit *)
    mutable circuit : Qcir.Circuit.t;
    mutable errors : float array;  (** per instruction index (0.0 for 1Q) *)
    mutable final_layout : int array;  (** logical -> current-space qubit *)
    mutable qubit_map : int array;  (** compact -> device qubit (after compact) *)
    mutable swap_count : int;
    mutable compacted : bool;
    mutable schedule : Schedule.t option;
        (** timed executable of the final [circuit] (set by the last pass) *)
  }

  (* Every compile starts here, so a circuit wider than the device, or
     an instruction set listing a type the device has no error data for,
     is refused before placement — before the first metrics snapshot
     reads logical qubits as device qubits. *)
  let create ~options ~device ~isa ?placement circuit =
    let cal = Device.calibration device in
    let n_logical = Qcir.Circuit.n_qubits circuit in
    if n_logical > Device.n_qubits device then
      invalid_arg
        (Printf.sprintf "circuit needs %d qubits, but device %s has %d" n_logical
           (Device.name device) (Device.n_qubits device));
    List.iter
      (fun ty ->
        if not (Device.Calibration.calibrates cal ty) then
          invalid_arg
            (Printf.sprintf "instruction set %s uses %s, which device %s does not calibrate"
               (Isa.Set.name isa) (Gates.Gate_type.name ty) (Device.name device)))
      (Isa.Set.gate_types isa);
    {
      device;
      cal;
      isa;
      options;
      n_logical;
      placement;
      circuit;
      errors = Array.make (Qcir.Circuit.length circuit) 0.0;
      final_layout = Array.init n_logical Fun.id;
      qubit_map = [||];
      swap_count = 0;
      compacted = false;
      schedule = None;
    }
end

type t = { name : string; run : Context.t -> unit }

let make name run = { name; run }
let name p = p.name
let run p ctx = p.run ctx

(* ---------- calibrated durations ---------- *)

(* Duration oracle over calibration data: 1Q gates take the device-wide
   1Q duration, 2Q gates the per-edge per-gate-type duration keyed by
   the gate's name (family-instantiated gates without a calibrated entry
   fall back to the device-wide 2Q scalar).  [to_device] maps the
   circuit's qubit space onto device qubits — identity before
   compaction, [qubit_map] lookups after. *)
let calibrated_durations ~cal ~to_device =
  let d1 = Device.Calibration.duration_1q cal in
  let d2 = Device.Calibration.duration_2q cal in
  let topo = Device.Calibration.topology cal in
  fun _index instr ->
    let qs = Qcir.Instr.qubits instr in
    match Array.length qs with
    | 1 -> d1
    | 2 ->
      let a = to_device qs.(0) and b = to_device qs.(1) in
      (* Pre-routing schedules carry logical 2Q blocks between
         non-adjacent qubits; those take the device-wide scalar, the
         same fallback Calibration itself applied before it validated
         adjacency. *)
      if Device.Topology.are_adjacent topo a b then
        Device.Calibration.twoq_duration cal (a, b)
          (Gates.Gate.name (Qcir.Instr.gate instr))
      else d2
    | _ -> invalid_arg "Pass.calibrated_durations: gates beyond two qubits unsupported"

let timed_schedule (ctx : Context.t) =
  let to_device =
    if ctx.Context.compacted then fun q -> ctx.Context.qubit_map.(q) else Fun.id
  in
  Schedule.of_circuit
    ~durations:(calibrated_durations ~cal:ctx.Context.cal ~to_device)
    ctx.Context.circuit

(* ---------- decomposition of one routed 2Q application unitary ---------- *)

(* Each gate type in the instruction set is tried (sharing cached
   fidelity curves); the type and layer count maximizing F_u = F_d * F_h
   win (Eq 2).  F_h folds in the per-edge error of the chosen type and
   the single-qubit layer errors.  [okey] and [target] are the cache key
   parts, built once by the caller. *)
let decompose_keyed ~options ~okey ~cal ~isa ~edge target =
  let a, b = edge in
  let f1 =
    Device.Calibration.oneq_fidelity cal a *. Device.Calibration.oneq_fidelity cal b
  in
  let candidate ty =
    let err = Device.Calibration.twoq_error cal edge ty in
    let fh layers =
      ((1.0 -. err) ** float_of_int layers) *. (f1 ** float_of_int (layers + 1))
    in
    let curve = Decompose.Cache.curve okey ty target in
    if options.approximate then Decompose.Nuop.approx_of_curve ~fh ty curve
    else begin
      let d = Decompose.Nuop.exact_of_curve ~threshold:options.exact_threshold ty curve in
      { d with fh = fh d.Decompose.Nuop.layers }
    end
  in
  let candidates = List.map candidate (Isa.Set.gate_types isa) in
  if options.adaptive then Decompose.Nuop.select_best candidates
  else begin
    (* fidelity-blind selection: best decomposition quality, then fewest
       gates (ablation mode) *)
    match candidates with
    | [] -> invalid_arg "Pass.decompose_on_edge: empty instruction set"
    | first :: rest ->
      List.fold_left
        (fun best c ->
          let open Decompose.Nuop in
          if
            c.fd > best.fd +. 1e-12
            || (Float.abs (c.fd -. best.fd) <= 1e-12 && c.layers < best.layers)
          then c
          else best)
        first rest
  end

let decompose_on_edge ~options ~cal ~isa ~edge ~target =
  decompose_keyed ~options
    ~okey:(Decompose.Cache.options_key options.nuop)
    ~cal ~isa ~edge (Decompose.Cache.target_key target)

(* ---------- placement ---------- *)

let placement =
  make "place" (fun ctx ->
      match ctx.Context.placement with
      | Some _ -> ()  (* caller-provided placement wins *)
      | None -> (
        match Mapping.best_line ctx.Context.cal ctx.Context.isa ctx.Context.n_logical with
        | Some p -> ctx.Context.placement <- Some p
        | None ->
          invalid_arg
            (Printf.sprintf "Pass.placement: no %d-qubit line in the device"
               ctx.Context.n_logical)))

(* ---------- routing ---------- *)

(* Best calibrated error across the instruction set's gate types on an
   edge — the router's tie-break cost. *)
let edge_cost ~cal ~isa edge =
  let best =
    List.fold_left
      (fun acc ty ->
        match Device.Calibration.twoq_error cal edge ty with
        | e -> Float.min acc e
        | exception Invalid_argument _ -> acc)
      infinity (Isa.Set.gate_types isa)
  in
  if best = infinity then 0.0 else best

let route () =
  make "route" (fun ctx ->
      let open Context in
      let placement = Option.get ctx.placement in
      let topology = Device.Calibration.topology ctx.cal in
      let routed =
        Router.route
          ~edge_cost:(edge_cost ~cal:ctx.cal ~isa:ctx.isa)
          ~topology ~placement ctx.circuit
      in
      ctx.circuit <- routed.Router.circuit;
      ctx.errors <- Array.make (Qcir.Circuit.length routed.Router.circuit) 0.0;
      ctx.final_layout <- routed.Router.final_layout;
      ctx.swap_count <- routed.Router.swap_count)

(* ---------- NuOp lowering ---------- *)

(* Per-instruction error rates for the instructions NuOp emitted. *)
let errors_of_decomposition ~cal ~edge (d : Decompose.Nuop.t) instrs =
  List.map
    (fun instr ->
      if Qcir.Instr.is_two_qubit instr then
        Device.Calibration.twoq_error cal edge d.gate_type
      else 0.0)
    instrs

let lower =
  make "lower" (fun ctx ->
      let open Context in
      let okey = Decompose.Cache.options_key ctx.options.nuop in
      let rev_instrs = ref [] and rev_errors = ref [] in
      let emit instr err =
        rev_instrs := instr :: !rev_instrs;
        rev_errors := err :: !rev_errors
      in
      Qcir.Circuit.iter
        (fun instr ->
          let qs = Qcir.Instr.qubits instr in
          match Array.length qs with
          | 1 -> emit instr 0.0
          | 2 ->
            let edge = (qs.(0), qs.(1)) in
            let target =
              Decompose.Cache.target_key (Gates.Gate.matrix (Qcir.Instr.gate instr))
            in
            let d =
              decompose_keyed ~options:ctx.options ~okey ~cal:ctx.cal ~isa:ctx.isa ~edge target
            in
            let instrs = Decompose.Nuop.to_instrs d ~qubits:(qs.(0), qs.(1)) in
            let errs = errors_of_decomposition ~cal:ctx.cal ~edge d instrs in
            List.iter2 emit instrs errs
          | _ -> invalid_arg "Pass.lower: gates beyond two qubits unsupported")
        ctx.circuit;
      ctx.circuit <-
        Qcir.Circuit.of_instrs (Qcir.Circuit.n_qubits ctx.circuit) (List.rev !rev_instrs);
      ctx.errors <- Array.of_list (List.rev !rev_errors))

(* ---------- 1Q-merge peephole ---------- *)

(* Fuse runs of adjacent single-qubit gates on the same qubit into one
   U3 via ZYZ extraction — each merged pair removes a 1Q layer that
   Eq 2's F_h charges.  A run of length 1 is re-emitted untouched (no
   churn of named gates into u3).  Gates on other qubits do not break a
   run; a two-qubit gate touching the qubit flushes it just before. *)
let merge_oneq_rewrite circuit errors =
  let n = Qcir.Circuit.n_qubits circuit in
  let pending : (Qcir.Instr.t list * Mat.t) option array = Array.make n None in
  let rev_out = ref [] in
  let emit instr err = rev_out := (instr, err) :: !rev_out in
  let flush q =
    match pending.(q) with
    | None -> ()
    | Some ([ single ], _) ->
      pending.(q) <- None;
      emit single 0.0
    | Some (_, m) ->
      pending.(q) <- None;
      let a, b, l = Gates.Oneq.zyz m in
      emit (Qcir.Instr.make (Gates.Gate.u3 a b l) [| q |]) 0.0
  in
  let idx = ref 0 in
  Qcir.Circuit.iter
    (fun instr ->
      let err = errors.(!idx) in
      incr idx;
      let qs = Qcir.Instr.qubits instr in
      if Array.length qs = 1 then begin
        let q = qs.(0) in
        let m = Gates.Gate.matrix (Qcir.Instr.gate instr) in
        match pending.(q) with
        | None -> pending.(q) <- Some ([ instr ], m)
        | Some (run, acc) -> pending.(q) <- Some (instr :: run, Mat.mul m acc)
      end
      else begin
        Array.iter flush qs;
        emit instr err
      end)
    circuit;
  for q = 0 to n - 1 do
    flush q
  done;
  let pairs = List.rev !rev_out in
  ( Qcir.Circuit.of_instrs n (List.map fst pairs),
    Array.of_list (List.map snd pairs) )

let merge_oneq =
  make "merge-1q" (fun ctx ->
      let open Context in
      let circuit, errors = merge_oneq_rewrite ctx.circuit ctx.errors in
      ctx.circuit <- circuit;
      ctx.errors <- errors)

(* ---------- trivial-gate elision ---------- *)

let elide_rewrite circuit errors =
  let n = Qcir.Circuit.n_qubits circuit in
  let rev_out = ref [] in
  let idx = ref 0 in
  Qcir.Circuit.iter
    (fun instr ->
      let err = errors.(!idx) in
      incr idx;
      let m = Gates.Gate.matrix (Qcir.Instr.gate instr) in
      if not (Mat.equal_up_to_phase ~eps:1e-7 m (Mat.identity (Mat.rows m))) then
        rev_out := (instr, err) :: !rev_out)
    circuit;
  let pairs = List.rev !rev_out in
  ( Qcir.Circuit.of_instrs n (List.map fst pairs),
    Array.of_list (List.map snd pairs) )

let elide_trivial =
  make "elide-id" (fun ctx ->
      let open Context in
      let circuit, errors = elide_rewrite ctx.circuit ctx.errors in
      ctx.circuit <- circuit;
      ctx.errors <- errors)

(* ---------- qubit compaction ---------- *)

(* Renumber onto the qubits the circuit actually touches so the exact
   density simulator works on the smallest space; the placement qubits
   always stay (readout needs them even if idle). *)
let compact =
  make "compact" (fun ctx ->
      let open Context in
      let placement = Option.get ctx.placement in
      let instrs = Qcir.Circuit.instrs ctx.circuit in
      let used = Hashtbl.create 16 in
      List.iter
        (fun i -> Array.iter (fun q -> Hashtbl.replace used q ()) (Qcir.Instr.qubits i))
        instrs;
      Array.iter (fun q -> Hashtbl.replace used q ()) placement;
      let qubit_map =
        Hashtbl.fold (fun q () acc -> q :: acc) used [] |> List.sort compare |> Array.of_list
      in
      let device_to_compact = Hashtbl.create 16 in
      Array.iteri (fun c q -> Hashtbl.replace device_to_compact q c) qubit_map;
      ctx.circuit <-
        Qcir.Circuit.of_instrs (Array.length qubit_map)
          (List.map (Qcir.Instr.map_qubits (Hashtbl.find device_to_compact)) instrs);
      ctx.final_layout <- Array.map (Hashtbl.find device_to_compact) ctx.final_layout;
      ctx.qubit_map <- qubit_map;
      ctx.compacted <- true)

(* ---------- scheduling ---------- *)

(* Attach the timed executable to the context.  Last in the stack, so
   the schedule lives in the same (compact) space as the final circuit. *)
let schedule_pass =
  make "schedule" (fun ctx -> ctx.Context.schedule <- Some (timed_schedule ctx))

(* ---------- the stack ---------- *)

let stack options =
  let peepholes = if options.optimize then [ merge_oneq; elide_trivial ] else [] in
  (placement :: route () :: lower :: peepholes) @ [ compact; schedule_pass ]
