(* Tests for instruction sets, placement, routing and the end-to-end
   compilation pipeline, plus the pass stack against the reference
   compiler on random circuits. *)

open Linalg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fast_options =
  {
    Compiler.Pipeline.default_options with
    nuop = { Decompose.Nuop.default_options with starts = 3 };
  }

(* ---------- Isa ---------- *)

let test_isa_sizes () =
  check_int "S1" 1 (Isa.Set.size Isa.Set.s1);
  check_int "G2" 3 (Isa.Set.size Isa.Set.g2);
  check_int "G7" 8 (Isa.Set.size Isa.Set.g7);
  check_int "R5" 6 (Isa.Set.size Isa.Set.r5);
  check_int "all sets" 22 (List.length Isa.Set.all)

let test_isa_table2_membership () =
  (* Table II: G7 = S1..S7 + SWAP; R5 includes SWAP but not SYC *)
  check_bool "g7 has swap" true (Isa.Set.mem Isa.Set.g7 Gates.Gate_type.swap_type);
  check_bool "g7 has syc" true (Isa.Set.mem Isa.Set.g7 Gates.Gate_type.s1);
  check_bool "r5 no syc" false (Isa.Set.mem Isa.Set.r5 Gates.Gate_type.s1);
  check_bool "r5 has swap" true (Isa.Set.mem Isa.Set.r5 Gates.Gate_type.swap_type);
  check_bool "r1 = {cz, iswap}" true
    (Isa.Set.mem Isa.Set.r1 Gates.Gate_type.s3
    && Isa.Set.mem Isa.Set.r1 Gates.Gate_type.s4)

let test_isa_continuous () =
  check_bool "full_fsim" true (Isa.Set.is_continuous Isa.Set.full_fsim);
  check_bool "g7 discrete" false (Isa.Set.is_continuous Isa.Set.g7)

let test_isa_find () =
  check_bool "finds G3" true
    (match Isa.Set.find "G3" with
    | Some isa -> Isa.Set.size isa = 4
    | None -> false);
  check_bool "unknown" true (Isa.Set.find "nope" = None)

(* ---------- Mapping ---------- *)

let test_mapping_trivial () =
  let cal = Device.Aspen8.ring_device () in
  match Compiler.Mapping.trivial cal 4 with
  | None -> Alcotest.fail "expected placement"
  | Some p ->
    check_int "size" 4 (Array.length p);
    let topo = Device.Calibration.topology cal in
    for k = 0 to 2 do
      check_bool "adjacent" true (Device.Topology.are_adjacent topo p.(k) p.(k + 1))
    done

let test_mapping_best_line_prefers_fidelity () =
  let cal = Device.Aspen8.ring_device () in
  let isa = Isa.Set.s3 in
  match Compiler.Mapping.best_line cal isa 3 with
  | None -> Alcotest.fail "expected placement"
  | Some p ->
    (* the best CZ path should score at least as well as every other path *)
    let best_score = Compiler.Mapping.path_score cal isa (Array.to_list p) in
    List.iter
      (fun path ->
        check_bool "optimal" true
          (best_score >= Compiler.Mapping.path_score cal isa path -. 1e-12))
      (Compiler.Mapping.enumerate_paths (Device.Calibration.topology cal) 3 ~limit:1000)

let test_enumerate_paths () =
  let topo = Device.Topology.line 4 in
  (* simple paths of 3 vertices in a 4-line: [012],[123] in both directions *)
  let paths = Compiler.Mapping.enumerate_paths topo 3 ~limit:100 in
  check_int "count" 4 (List.length paths)

(* ---------- Router ---------- *)

let test_router_adjacency () =
  let topology = Device.Topology.ring 8 in
  let rng = Rng.create 5 in
  let circuit = Apps.Qv.circuit rng 5 in
  let routed =
    Compiler.Router.route ~topology ~placement:[| 0; 1; 2; 3; 4 |] circuit
  in
  Qcir.Circuit.iter
    (fun i ->
      if Qcir.Instr.is_two_qubit i then begin
        let qs = Qcir.Instr.qubits i in
        check_bool "adjacent" true (Device.Topology.are_adjacent topology qs.(0) qs.(1))
      end)
    routed.Compiler.Router.circuit

let test_router_no_swaps_when_adjacent () =
  let topology = Device.Topology.line 3 in
  let c = Qcir.Circuit.add_gate (Qcir.Circuit.empty 2) Gates.Gate.cz [| 0; 1 |] in
  let routed = Compiler.Router.route ~topology ~placement:[| 0; 1 |] c in
  check_int "no swaps" 0 routed.Compiler.Router.swap_count

let test_router_semantics_preserved () =
  (* simulate the routed circuit and compare with the logical circuit
     after permuting qubits by the final layout *)
  let topology = Device.Topology.line 4 in
  let rng = Rng.create 6 in
  let circuit = Apps.Qv.circuit rng 4 in
  let routed = Compiler.Router.route ~topology ~placement:[| 0; 1; 2; 3 |] circuit in
  let logical = Sim.State.run_circuit circuit in
  let physical = Sim.State.run_circuit routed.Compiler.Router.circuit in
  (* amplitude of physical index must equal logical amplitude with bits
     permuted: logical qubit l lives at physical position final_layout(l) *)
  let layout = routed.Compiler.Router.final_layout in
  let dim = Sim.State.dim logical in
  let ok = ref true in
  for x = 0 to dim - 1 do
    let phys_index = ref 0 in
    for l = 0 to 3 do
      if (x lsr l) land 1 = 1 then phys_index := !phys_index lor (1 lsl layout.(l))
    done;
    let a = Sim.State.amplitude logical x in
    let b = Sim.State.amplitude physical !phys_index in
    if Complex.norm (Complex.sub a b) > 1e-7 then ok := false
  done;
  check_bool "semantics" true !ok

let test_router_distant_pair () =
  let topology = Device.Topology.line 5 in
  let c = Qcir.Circuit.add_gate (Qcir.Circuit.empty 2) Gates.Gate.cz [| 0; 1 |] in
  (* logical qubits placed at opposite ends *)
  let routed = Compiler.Router.route ~topology ~placement:[| 0; 4 |] c in
  check_int "3 swaps" 3 routed.Compiler.Router.swap_count

(* Regression for the direction-aware SWAP chains: walking the wrong
   endpoint strands the next gate's operands far apart.  Logical 0@phys0,
   1@phys4, 2@phys1 on a 5-line; cz(0,1) then cz(1,2).  Walking qubit 1
   down (4->1) leaves it adjacent to qubit 2 (3 swaps total); walking the
   first operand instead drags qubit 0 up and needs 3 more (6 total). *)
let test_router_direction_lookahead () =
  let topology = Device.Topology.line 5 in
  let c =
    Qcir.Circuit.add_gate
      (Qcir.Circuit.add_gate (Qcir.Circuit.empty 3) Gates.Gate.cz [| 0; 1 |])
      Gates.Gate.cz [| 1; 2 |]
  in
  let placement = [| 0; 4; 1 |] in
  let smart = Compiler.Router.route ~topology ~placement c in
  check_int "directional swaps" 3 smart.Compiler.Router.swap_count;
  (* the routed circuit stays semantically valid *)
  Qcir.Circuit.iter
    (fun i ->
      if Qcir.Instr.is_two_qubit i then
        let qs = Qcir.Instr.qubits i in
        check_bool "adjacent" true (Device.Topology.are_adjacent topology qs.(0) qs.(1)))
    smart.Compiler.Router.circuit

(* ---------- Pipeline ---------- *)

let small_circuit () =
  let rng = Rng.create 7 in
  Apps.Qv.circuit rng 3

let test_pipeline_hardware_gates_only () =
  let device = Device.sycamore_line 4 in
  let compiled =
    Compiler.Pipeline.compile ~options:fast_options ~device ~isa:Isa.Set.g2
      (small_circuit ())
  in
  let allowed =
    "u3" :: List.map Gates.Gate_type.name (Isa.Set.gate_types Isa.Set.g2)
  in
  Qcir.Circuit.iter
    (fun i ->
      let name = Gates.Gate.name (Qcir.Instr.gate i) in
      let base = if String.length name >= 2 && String.sub name 0 2 = "u3" then "u3" else name in
      check_bool (Printf.sprintf "gate %s allowed" name) true (List.mem base allowed))
    compiled.Compiler.Pipeline.circuit

let test_pipeline_exact_reproduces_logical () =
  (* exact compile + noiseless run = logical distribution *)
  let device = Device.sycamore_line 4 in
  let circuit = small_circuit () in
  let options = { fast_options with approximate = false; exact_threshold = 1.0 -. 1e-8 } in
  let compiled = Compiler.Pipeline.compile ~options ~device ~isa:Isa.Set.s3 circuit in
  let probs = Sim.Noisy.output_probabilities Sim.Noisy.ideal compiled.Compiler.Pipeline.circuit in
  let logical = Compiler.Pipeline.logical_probabilities compiled probs in
  let expect = Sim.State.probabilities (Sim.State.run_circuit circuit) in
  Array.iteri
    (fun k p -> check_bool "close" true (Float.abs (p -. logical.(k)) < 1e-4))
    expect

let test_pipeline_swap_native_reduces_count () =
  let device = Device.sycamore_line 6 in
  let rng = Rng.create 8 in
  let circuit = Apps.Qaoa.circuit rng 4 in
  let with_swap =
    Compiler.Pipeline.compile ~options:fast_options ~device ~isa:Isa.Set.g7 circuit
  in
  let without =
    Compiler.Pipeline.compile ~options:fast_options ~device ~isa:Isa.Set.g6 circuit
  in
  check_bool "fewer gates with SWAP" true
    (with_swap.Compiler.Pipeline.twoq_count < without.Compiler.Pipeline.twoq_count)

let test_pipeline_errors_aligned () =
  let device = Device.sycamore_line 4 in
  let compiled =
    Compiler.Pipeline.compile ~options:fast_options ~device ~isa:Isa.Set.s1
      (small_circuit ())
  in
  check_int "one error per instruction"
    (Qcir.Circuit.length compiled.Compiler.Pipeline.circuit)
    (Array.length compiled.Compiler.Pipeline.twoq_errors);
  let idx = ref 0 in
  Qcir.Circuit.iter
    (fun i ->
      let e = compiled.Compiler.Pipeline.twoq_errors.(!idx) in
      if Qcir.Instr.is_two_qubit i then check_bool "2q has error" true (e > 0.0)
      else Alcotest.(check (float 0.0)) "1q zero" 0.0 e;
      incr idx)
    compiled.Compiler.Pipeline.circuit

let test_pipeline_adaptive_beats_blind () =
  (* on a device with strong cross-type variation, adaptive selection
     should never produce lower estimated overall fidelity *)
  let cal = Device.Aspen8.ring_device () in
  let u = Qr.haar_special_unitary (Rng.create 9) 4 in
  let isa = Isa.Set.r2 in
  let adaptive =
    Compiler.Pass.decompose_on_edge ~options:fast_options ~cal ~isa ~edge:(2, 3)
      ~target:u
  in
  let blind =
    Compiler.Pass.decompose_on_edge
      ~options:{ fast_options with adaptive = false }
      ~cal ~isa ~edge:(2, 3) ~target:u
  in
  check_bool "adaptive >= blind" true
    (Decompose.Nuop.overall_fidelity adaptive
    >= Decompose.Nuop.overall_fidelity blind -. 1e-9)

let test_pipeline_logical_probabilities_marginalize () =
  let device = Device.sycamore_line 5 in
  let compiled =
    Compiler.Pipeline.compile ~options:fast_options ~device ~isa:Isa.Set.s2
      (small_circuit ())
  in
  let probs = Sim.Noisy.output_probabilities Sim.Noisy.ideal compiled.Compiler.Pipeline.circuit in
  let logical = Compiler.Pipeline.logical_probabilities compiled probs in
  check_int "logical dim" 8 (Array.length logical);
  Alcotest.(check (float 1e-6)) "normalized" 1.0 (Array.fold_left ( +. ) 0.0 logical)

let test_pipeline_refuses_uncalibrated_type () =
  (* Aspen-8 calibrates no SYC, so G7 is refused up front, even for a
     circuit without a two-qubit gate; sets each device calibrates still
     compile *)
  let one_cz = Qcir.Circuit.add_gate (Qcir.Circuit.empty 2) Gates.Gate.cz [| 0; 1 |] in
  let compile device isa circuit =
    Compiler.Pipeline.compile ~options:fast_options ~device ~isa circuit
  in
  List.iter
    (fun circuit ->
      Alcotest.check_raises "G7 on aspen8"
        (Invalid_argument
           "instruction set G7 uses SYC, which device aspen8 does not calibrate")
        (fun () -> ignore (compile (Device.aspen8 ()) Isa.Set.g7 circuit)))
    [ one_cz; Qcir.Circuit.empty 1 ];
  List.iter
    (fun (label, device, isa) ->
      check_bool label true ((compile device isa one_cz).Compiler.Pipeline.twoq_count > 0))
    [
      ("G7 on sycamore", Device.sycamore_line 4, Isa.Set.g7);
      ("R5 on aspen8", Device.aspen8 (), Isa.Set.r5);
    ]

let test_pipeline_full_family () =
  let device = Device.sycamore_line 4 in
  let compiled =
    Compiler.Pipeline.compile ~options:fast_options ~device ~isa:Isa.Set.full_fsim
      (small_circuit ())
  in
  (* continuous set: on average at most ~2 gates per unitary + routing *)
  check_bool "compact" true (compiled.Compiler.Pipeline.twoq_count <= 14);
  let probs = Sim.Noisy.output_probabilities Sim.Noisy.ideal compiled.Compiler.Pipeline.circuit in
  Alcotest.(check (float 1e-6)) "normalized" 1.0 (Array.fold_left ( +. ) 0.0 probs)

(* ---------- Pass stacks ---------- *)

(* the circuit's full unitary, column by column *)
let circuit_unitary c =
  let n = Qcir.Circuit.n_qubits c in
  let dim = 1 lsl n in
  let cols =
    Array.init dim (fun j ->
        let s = Sim.State.of_basis n j in
        Sim.State.run_circuit_on s c;
        s)
  in
  Mat.init dim dim (fun i j -> Sim.State.amplitude cols.(j) i)

(* The pre-pass-manager monolithic compiler, kept as a differential
   reference: the default stack must reproduce it bit-for-bit.  It runs
   on the bare [Calibration.t] it predates, so the comparison also pins
   down that the [Device.t] plumbing changes nothing. *)
let compile_reference ~options ~cal ~isa circuit : Compiler.Pipeline.compiled =
  let open Compiler in
  let topology = Device.Calibration.topology cal in
  let n_logical = Qcir.Circuit.n_qubits circuit in
  let placement =
    match Mapping.best_line cal isa n_logical with
    | Some p -> p
    | None -> Alcotest.failf "reference: no %d-qubit line in the device" n_logical
  in
  let routed =
    Router.route ~edge_cost:(Pass.edge_cost ~cal ~isa) ~topology ~placement circuit
  in
  (* decompose every routed instruction, tracking per-instruction errors *)
  let rev_instrs = ref [] and rev_errors = ref [] in
  let twoq_count = ref 0 in
  let emit instr err =
    rev_instrs := instr :: !rev_instrs;
    rev_errors := err :: !rev_errors;
    if Qcir.Instr.is_two_qubit instr then incr twoq_count
  in
  Qcir.Circuit.iter
    (fun instr ->
      let qs = Qcir.Instr.qubits instr in
      match Array.length qs with
      | 1 -> emit instr 0.0
      | 2 ->
        let edge = (qs.(0), qs.(1)) in
        let target = Gates.Gate.matrix (Qcir.Instr.gate instr) in
        let d = Pass.decompose_on_edge ~options ~cal ~isa ~edge ~target in
        let instrs = Decompose.Nuop.to_instrs d ~qubits:(qs.(0), qs.(1)) in
        let errs = Pass.errors_of_decomposition ~cal ~edge d instrs in
        List.iter2 emit instrs errs
      | _ -> Alcotest.fail "reference: gates beyond two qubits")
    routed.Router.circuit;
  let instrs = List.rev !rev_instrs and errors = List.rev !rev_errors in
  (* compact onto used qubits *)
  let used = Hashtbl.create 16 in
  List.iter (fun i -> Array.iter (fun q -> Hashtbl.replace used q ()) (Qcir.Instr.qubits i)) instrs;
  Array.iter (fun q -> Hashtbl.replace used q ()) placement;
  let qubit_map = Hashtbl.fold (fun q () acc -> q :: acc) used [] |> List.sort compare |> Array.of_list in
  let device_to_compact = Hashtbl.create 16 in
  Array.iteri (fun c q -> Hashtbl.replace device_to_compact q c) qubit_map;
  let compact_instrs =
    List.map (Qcir.Instr.map_qubits (Hashtbl.find device_to_compact)) instrs
  in
  let compact_circuit =
    Qcir.Circuit.of_instrs (Array.length qubit_map) compact_instrs
  in
  let final_layout =
    Array.map (Hashtbl.find device_to_compact) routed.Router.final_layout
  in
  let schedule =
    Schedule.of_circuit compact_circuit
      ~durations:(Pass.calibrated_durations ~cal ~to_device:(fun q -> qubit_map.(q)))
  in
  {
    circuit = compact_circuit;
    twoq_errors = Array.of_list errors;
    qubit_map;
    final_layout;
    n_logical;
    swap_count = routed.Router.swap_count;
    twoq_count = !twoq_count;
    isa;
    schedule;
    duration = Schedule.total_duration schedule;
    critical_depth = Schedule.depth schedule;
  }

let check_same_compiled label (a : Compiler.Pipeline.compiled)
    (b : Compiler.Pipeline.compiled) =
  let open Compiler.Pipeline in
  check_int (label ^ ": length") (Qcir.Circuit.length b.circuit)
    (Qcir.Circuit.length a.circuit);
  List.iter2
    (fun ia ib ->
      let ga = Qcir.Instr.gate ia and gb = Qcir.Instr.gate ib in
      Alcotest.(check string) (label ^ ": gate name") (Gates.Gate.name gb)
        (Gates.Gate.name ga);
      check_bool (label ^ ": qubits") true (Qcir.Instr.qubits ia = Qcir.Instr.qubits ib);
      check_bool (label ^ ": params") true (Gates.Gate.params ga = Gates.Gate.params gb))
    (Qcir.Circuit.instrs a.circuit)
    (Qcir.Circuit.instrs b.circuit);
  check_bool (label ^ ": errors bit-for-bit") true (a.twoq_errors = b.twoq_errors);
  check_bool (label ^ ": qubit_map") true (a.qubit_map = b.qubit_map);
  check_bool (label ^ ": final_layout") true (a.final_layout = b.final_layout);
  check_int (label ^ ": swaps") b.swap_count a.swap_count;
  check_int (label ^ ": 2q count") b.twoq_count a.twoq_count

(* the default stack must reproduce the retained monolith bit-for-bit
   on the fig9/fig10-style configurations *)
let test_pass_default_stack_matches_reference () =
  List.iter
    (fun (label, device, isa, circuit) ->
      let cal = Device.calibration device in
      let a = Compiler.Pipeline.compile ~options:fast_options ~device ~isa circuit in
      let b = compile_reference ~options:fast_options ~cal ~isa circuit in
      check_same_compiled label a b)
    [
      ( "fig10 QV",
        Device.sycamore_line 4,
        Isa.Set.g2,
        Apps.Qv.circuit (Rng.create 7) 3 );
      ( "fig9 QAOA",
        Device.aspen8 (),
        Isa.Set.r2,
        Apps.Qaoa.circuit (Rng.create 8) 4 );
    ]

let test_pass_metrics_recorded () =
  let device = Device.sycamore_line 4 in
  Decompose.Cache.clear ();
  let compiled, metrics =
    Compiler.Pipeline.compile_with_metrics ~options:fast_options ~device
      ~isa:Isa.Set.g2
      (Apps.Qaoa.circuit (Rng.create 3) 4)
  in
  check_int "one record per pass"
    (List.length Compiler.Pass.default_stack)
    (List.length metrics);
  let lower =
    List.find (fun m -> m.Compiler.Pass_manager.pass_name = "lower") metrics
  in
  (* QAOA repeats the same ZZ interaction on every edge: the
     decomposition cache must get hits within one compile *)
  check_bool "cache hits > 0" true (lower.Compiler.Pass_manager.cache_hits > 0);
  let hits, misses = Decompose.Cache.stats () in
  check_bool "global hit rate > 0" true (hits > 0 && misses > 0);
  let final = List.nth metrics (List.length metrics - 1) in
  check_int "final 2Q matches compiled" compiled.Compiler.Pipeline.twoq_count
    final.Compiler.Pass_manager.twoq_after

let test_pass_merge_oneq_preserves_unitary () =
  let device = Device.sycamore_line 4 in
  let circuit = small_circuit () in
  let plain =
    Compiler.Pipeline.compile ~options:fast_options ~device ~isa:Isa.Set.g2 circuit
  in
  let merged =
    Compiler.Pipeline.compile ~options:fast_options
      ~stack:Compiler.Pass.optimized_stack ~device ~isa:Isa.Set.g2 circuit
  in
  let n1 = Qcir.Circuit.one_qubit_count plain.Compiler.Pipeline.circuit in
  let n2 = Qcir.Circuit.one_qubit_count merged.Compiler.Pipeline.circuit in
  check_bool "1Q count reduced or equal" true (n2 <= n1);
  check_int "2Q count unchanged" plain.Compiler.Pipeline.twoq_count
    merged.Compiler.Pipeline.twoq_count;
  let d =
    Metrics.Dist.process_distance
      (circuit_unitary plain.Compiler.Pipeline.circuit)
      (circuit_unitary merged.Compiler.Pipeline.circuit)
  in
  check_bool "unitary preserved (process distance < 1e-9)" true (d < 1e-9)

let test_pass_merge_rewrite_small () =
  (* a run of 1Q gates on each qubit around a CZ collapses to one u3 each *)
  let c = Qcir.Circuit.empty 2 in
  let c = Qcir.Circuit.add_gate c Gates.Gate.h [| 0 |] in
  let c = Qcir.Circuit.add_gate c (Gates.Gate.rz 0.3) [| 0 |] in
  let c = Qcir.Circuit.add_gate c (Gates.Gate.rx 0.7) [| 0 |] in
  let c = Qcir.Circuit.add_gate c Gates.Gate.x [| 1 |] in
  let c = Qcir.Circuit.add_gate c Gates.Gate.cz [| 0; 1 |] in
  let c = Qcir.Circuit.add_gate c (Gates.Gate.rz 0.1) [| 1 |] in
  let merged, errors = Compiler.Pass.merge_oneq_rewrite c (Array.make 6 0.0) in
  check_int "instruction count" 4 (Qcir.Circuit.length merged);
  check_int "errors aligned" 4 (Array.length errors);
  let d = Metrics.Dist.process_distance (circuit_unitary c) (circuit_unitary merged) in
  check_bool "unitary preserved" true (d < 1e-9)

let test_pass_elide_trivial () =
  let c = Qcir.Circuit.empty 2 in
  let c = Qcir.Circuit.add_gate c (Gates.Gate.rz 0.0) [| 0 |] in
  let c = Qcir.Circuit.add_gate c Gates.Gate.h [| 0 |] in
  let c = Qcir.Circuit.add_gate c (Gates.Gate.u3 0.0 0.0 0.0) [| 1 |] in
  let c = Qcir.Circuit.add_gate c Gates.Gate.cz [| 0; 1 |] in
  let elided, errors = Compiler.Pass.elide_rewrite c (Array.make 4 0.0) in
  check_int "identities dropped" 2 (Qcir.Circuit.length elided);
  check_int "errors aligned" 2 (Array.length errors);
  let d = Metrics.Dist.process_distance (circuit_unitary c) (circuit_unitary elided) in
  check_bool "unitary preserved" true (d < 1e-9)

let test_pass_time_is_wall_clock () =
  (* regression: pass timing once used the process-CPU clock, so a pass
     blocked on I/O or sleeping reported ~0 elapsed.  A sleeping pass
     must now report (most of) its wall time. *)
  let sleeper = Compiler.Pass.make "sleeper" (fun _ -> Unix.sleepf 0.06) in
  let ctx =
    Compiler.Pass.Context.create ~device:(Device.sycamore_line 4) ~isa:Isa.Set.s3
      (small_circuit ())
  in
  match Compiler.Pass_manager.run [ sleeper ] ctx with
  | [ m ] ->
    check_bool "wall time counted while sleeping" true
      (m.Compiler.Pass_manager.time_s >= 0.04)
  | ms -> Alcotest.failf "expected one metric record, got %d" (List.length ms)

let test_pass_stack_requires_compact () =
  let device = Device.sycamore_line 4 in
  let no_compact =
    [ Compiler.Pass.placement; Compiler.Pass.route (); Compiler.Pass.lower ]
  in
  check_bool "raises without compact" true
    (try
       ignore
         (Compiler.Pipeline.compile ~options:fast_options ~stack:no_compact ~device
            ~isa:Isa.Set.s3 (small_circuit ()));
       false
     with Invalid_argument _ -> true)

(* ---------- properties ---------- *)

let compiler_properties =
  [
    Proptest.test "pass stack matches the reference compiler" ~count:2
      (Proptest.circuit ~n_qubits:3 ~max_length:8 ())
      (fun circuit ->
        let options =
          { Compiler.Pipeline.default_options with nuop = Proptest.fast_nuop }
        in
        let device = Device.sycamore_line 4 in
        let cal = Device.calibration device in
        let isa = Isa.Set.g2 in
        let a = Compiler.Pipeline.compile ~options ~device ~isa circuit in
        let b = compile_reference ~options ~cal ~isa circuit in
        Proptest.same_compiled a b);
  ]

let () =
  Alcotest.run "compiler"
    [
      ( "isa",
        [
          Alcotest.test_case "sizes" `Quick test_isa_sizes;
          Alcotest.test_case "Table II membership" `Quick test_isa_table2_membership;
          Alcotest.test_case "continuous" `Quick test_isa_continuous;
          Alcotest.test_case "find" `Quick test_isa_find;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "trivial" `Quick test_mapping_trivial;
          Alcotest.test_case "best line" `Quick test_mapping_best_line_prefers_fidelity;
          Alcotest.test_case "enumerate" `Quick test_enumerate_paths;
        ] );
      ( "router",
        [
          Alcotest.test_case "adjacency" `Quick test_router_adjacency;
          Alcotest.test_case "no gratuitous swaps" `Quick test_router_no_swaps_when_adjacent;
          Alcotest.test_case "semantics" `Quick test_router_semantics_preserved;
          Alcotest.test_case "distant pair" `Quick test_router_distant_pair;
          Alcotest.test_case "direction lookahead" `Quick test_router_direction_lookahead;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "hardware gates only" `Quick test_pipeline_hardware_gates_only;
          Alcotest.test_case "exact reproduces logical" `Quick test_pipeline_exact_reproduces_logical;
          Alcotest.test_case "native SWAP helps" `Quick test_pipeline_swap_native_reduces_count;
          Alcotest.test_case "errors aligned" `Quick test_pipeline_errors_aligned;
          Alcotest.test_case "adaptive selection" `Quick test_pipeline_adaptive_beats_blind;
          Alcotest.test_case "logical marginalization" `Quick test_pipeline_logical_probabilities_marginalize;
          Alcotest.test_case "full family" `Quick test_pipeline_full_family;
          Alcotest.test_case "uncalibrated type refused" `Quick
            test_pipeline_refuses_uncalibrated_type;
        ] );
      ( "passes",
        [
          Alcotest.test_case "default stack = reference (bit-for-bit)" `Quick
            test_pass_default_stack_matches_reference;
          Alcotest.test_case "per-pass metrics + cache hits" `Quick
            test_pass_metrics_recorded;
          Alcotest.test_case "1Q-merge preserves unitary" `Quick
            test_pass_merge_oneq_preserves_unitary;
          Alcotest.test_case "1Q-merge rewrite" `Quick test_pass_merge_rewrite_small;
          Alcotest.test_case "trivial elision" `Quick test_pass_elide_trivial;
          Alcotest.test_case "pass time is wall clock" `Quick test_pass_time_is_wall_clock;
          Alcotest.test_case "stack must compact" `Quick test_pass_stack_requires_compact;
        ] );
      ("compiler", compiler_properties);
    ]
