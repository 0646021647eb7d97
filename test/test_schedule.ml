(* Unit tests for the shared timed-executable representation
   (lib/schedule): ASAP bucketing, start/duration accounting, busy and
   idle time, and the timeline rendering, plus the timing layer's
   properties (sound moments, exact busy/idle accounting, ESP against
   a schedule-aware density simulation). *)

open Linalg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-12))

let durations = Schedule.uniform ~duration_1q:10e-9 ~duration_2q:40e-9

(* H0; CZ(0,1); X2 — qubit 2's X packs into the first moment, the CZ
   waits for qubit 0 *)
let small_circuit () =
  let c = Qcir.Circuit.empty 3 in
  let c = Qcir.Circuit.add_gate c Gates.Gate.h [| 0 |] in
  let c = Qcir.Circuit.add_gate c Gates.Gate.cz [| 0; 1 |] in
  Qcir.Circuit.add_gate c Gates.Gate.x [| 2 |]

let test_asap_packing () =
  let s = Schedule.of_circuit ~durations (small_circuit ()) in
  check_int "two moments" 2 (Schedule.depth s);
  check_int "qubits" 3 (Schedule.n_qubits s);
  check_int "instructions" 3 (Schedule.instruction_count s);
  match Schedule.moments s with
  | [ m0; m1 ] ->
    check_int "m0 index" 0 m0.Schedule.index;
    check_float "m0 start" 0.0 m0.Schedule.start;
    (* the moment lasts as long as its longest instruction *)
    check_float "m0 duration" 10e-9 m0.Schedule.duration;
    Alcotest.(check (list int))
      "m0 holds H0 and X2 in program order" [ 0; 2 ]
      (List.map fst m0.Schedule.instrs);
    check_float "m1 start" 10e-9 m1.Schedule.start;
    check_float "m1 duration" 40e-9 m1.Schedule.duration;
    Alcotest.(check (list int)) "m1 holds the CZ" [ 1 ]
      (List.map fst m1.Schedule.instrs);
    check_float "total" 50e-9 (Schedule.total_duration s)
  | ms -> Alcotest.failf "expected 2 moments, got %d" (List.length ms)

let test_busy_idle () =
  let s = Schedule.of_circuit ~durations (small_circuit ()) in
  (* qubit 0 works in both moments; qubit 1 only during the CZ; qubit 2
     only during the first moment *)
  check_float "q0 busy" 50e-9 (Schedule.busy_time s 0);
  check_float "q0 idle" 0.0 (Schedule.idle_time s 0);
  check_float "q1 busy" 40e-9 (Schedule.busy_time s 1);
  check_float "q1 idle" 10e-9 (Schedule.idle_time s 1);
  check_float "q2 busy" 10e-9 (Schedule.busy_time s 2);
  check_float "q2 idle" 40e-9 (Schedule.idle_time s 2)

let test_uniform_depth_matches_circuit () =
  (* with uniform durations the moment count equals the circuit depth *)
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let c = Apps.Qv.circuit rng 4 in
      let s = Schedule.of_circuit ~durations c in
      check_int "depth" (Qcir.Circuit.depth c) (Schedule.depth s);
      check_int "instrs" (Qcir.Circuit.length c) (Schedule.instruction_count s))
    [ 1; 2; 3 ]

let test_per_instruction_durations () =
  (* a slow instruction stretches only its own moment *)
  let slow_cz _index instr =
    match Qcir.Instr.arity instr with 1 -> 10e-9 | _ -> 200e-9
  in
  let s = Schedule.of_circuit ~durations:slow_cz (small_circuit ()) in
  check_float "total" 210e-9 (Schedule.total_duration s)

let test_empty_circuit () =
  let s = Schedule.of_circuit ~durations (Qcir.Circuit.empty 2) in
  check_int "no moments" 0 (Schedule.depth s);
  check_float "no duration" 0.0 (Schedule.total_duration s);
  check_float "no idle" 0.0 (Schedule.idle_time s 0)

let test_uniform_oracle () =
  let d = Schedule.uniform ~duration_1q:11e-9 ~duration_2q:33e-9 in
  let one = Qcir.Instr.make Gates.Gate.x [| 0 |] in
  let two = Qcir.Instr.make Gates.Gate.cz [| 0; 1 |] in
  check_float "1q" 11e-9 (d 0 one);
  check_float "2q" 33e-9 (d 1 two)

let test_timeline_rendering () =
  let s = Schedule.of_circuit ~durations (small_circuit ()) in
  let text = Schedule.to_string s in
  check_bool "mentions ns" true (Astring.String.is_infix ~affix:"ns" text);
  check_bool "mentions the cz" true (Astring.String.is_infix ~affix:"cz" text)

(* ---------- repo-wide invariant: scheduling only via Schedule ----------

   A file re-deriving ASAP moments keeps a per-qubit availability array
   and buckets instructions by start step — the [avail.(] idiom — or
   names a private [indexed_moments].  Both lived in lib/sim before the
   timing layer was extracted; everything outside lib/schedule (and
   lib/circuit, whose depth counters sit below it in the dependency
   graph) must consume the shared Schedule.t instead.  Sources are
   scanned as copied into _build next to this test's cwd. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let ml_files dir =
  match Sys.is_directory dir with
  | true ->
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.map (Filename.concat dir)
  | false | (exception Sys_error _) -> []

let test_no_private_scheduling () =
  let dirs =
    [
      "../lib/sim"; "../lib/compiler"; "../lib/core"; "../lib/metrics";
      "../lib/apps"; "../lib/isa"; "../examples"; "../bin";
    ]
  in
  let files = List.concat_map ml_files dirs in
  check_bool "scanned a real source tree" true (List.length files > 10);
  let offenders =
    List.filter
      (fun f ->
        let s = read_file f in
        Astring.String.is_infix ~affix:"avail.(" s
        || Astring.String.is_infix ~affix:"indexed_moments" s)
      files
  in
  Alcotest.(check (list string)) "no private moment scheduling" [] offenders

(* ---------- properties: the timing layer against its laws ---------- *)

let uniform_durations = Schedule.uniform ~duration_1q:20e-9 ~duration_2q:40e-9

(* Schedule-aware density reference for the ESP property: Metrics.Esp
   charges idle-time decay, so after each moment's gates (each followed
   by its depolarizing channel) every qubit, idle ones included, decays
   for the moment's duration. *)
let run_scheduled (model : Sim.Noisy.noise_model) schedule =
  let n = Schedule.n_qubits schedule in
  let rho = Sim.Density.create n in
  let apply channel qubits =
    Sim.Density.apply_superoperator rho
      (Sim.State.prepare (Sim.Channel.superoperator channel))
      qubits
  in
  Schedule.iter_moments
    (fun moment ->
      List.iter
        (fun (idx, instr) ->
          Sim.Density.apply_instr rho instr;
          let qs = Qcir.Instr.qubits instr in
          if Array.length qs = 1 then
            apply (Sim.Channel.depolarizing_1q (model.oneq_error qs.(0))) qs
          else apply (Sim.Channel.depolarizing_2q (model.twoq_error idx instr)) qs)
        moment.Schedule.instrs;
      for q = 0 to n - 1 do
        let gamma, lambda =
          Sim.Channel.damping_params ~t1:(model.t1 q) ~t2:(model.t2 q)
            ~duration:moment.Schedule.duration
        in
        apply (Sim.Channel.amplitude_damping gamma) [| q |];
        apply (Sim.Channel.phase_damping lambda) [| q |]
      done)
    schedule;
  rho

(* Classical (Bhattacharyya) fidelity (sum_x sqrt(p_x q_x))^2 of two
   distributions. *)
let distribution_fidelity p q =
  let acc = ref 0.0 in
  Array.iteri (fun x px -> acc := !acc +. Float.sqrt (Float.max 0.0 (px *. q.(x)))) p;
  !acc *. !acc

let schedule_properties =
  [
    (* ASAP moments must be dependency-sound: no qubit acts twice in a
       moment, per-qubit program order is preserved across moments, and
       with uniform durations the moment count is exactly the circuit
       depth *)
    Proptest.test "moments are dependency-sound" ~count:20
      (Proptest.circuit ~max_length:16 ())
      (fun c ->
        let s = Schedule.of_circuit ~durations:uniform_durations c in
        let sound = ref true in
        let last = Array.make (Qcir.Circuit.n_qubits c) (-1) in
        Schedule.iter_moments
          (fun m ->
            let seen = Hashtbl.create 8 in
            List.iter
              (fun (idx, instr) ->
                Array.iter
                  (fun q ->
                    if Hashtbl.mem seen q then sound := false;
                    Hashtbl.replace seen q ();
                    if idx <= last.(q) then sound := false;
                    last.(q) <- idx)
                  (Qcir.Instr.qubits instr))
              m.Schedule.instrs)
          s;
        !sound
        && Schedule.depth s = Qcir.Circuit.depth c
        && Schedule.instruction_count s = Qcir.Circuit.length c);
    (* per-qubit accounting closes: busy + idle = total, exactly *)
    Proptest.test "busy + idle = total duration per qubit" ~count:15
      (Proptest.circuit ~max_length:16 ())
      (fun c ->
        let s = Schedule.of_circuit ~durations:uniform_durations c in
        List.for_all
          (fun q ->
            Float.abs
              (Schedule.busy_time s q +. Schedule.idle_time s q -. Schedule.total_duration s)
            <= 1e-15)
          (List.init (Schedule.n_qubits s) Fun.id));
    (* the analytic product tracks the exponential-cost density
       simulation: ESP within 5% absolute of both the state fidelity and
       the Bhattacharyya distribution fidelity on small noisy circuits *)
    Proptest.test "ESP tracks density-sim success within 5%" ~count:6
      (Proptest.circuit ~n_qubits:3 ~max_length:10 ())
      (fun c ->
        let twoq = 0.004 and oneq = 0.0004 in
        let t1 = 40e-6 and t2 = 30e-6 in
        let model =
          {
            Sim.Noisy.ideal with
            twoq_error = (fun _ _ -> twoq);
            oneq_error = (fun _ -> oneq);
            t1 = (fun _ -> t1);
            t2 = (fun _ -> t2);
            duration_1q = 25e-9;
            duration_2q = 40e-9;
          }
        in
        let schedule =
          Schedule.of_circuit c
            ~durations:
              (Schedule.uniform ~duration_1q:model.duration_1q
                 ~duration_2q:model.duration_2q)
        in
        let twoq_errors = Array.make (Qcir.Circuit.length c) twoq in
        let esp =
          (Metrics.Esp.estimate ~twoq_errors
             ~oneq_error:(fun _ -> oneq)
             ~t1:(fun _ -> t1)
             ~t2:(fun _ -> t2)
             schedule)
            .Metrics.Esp.esp
        in
        let rho = run_scheduled model schedule in
        let ideal = Sim.State.run_circuit c in
        let state_fid = Sim.Density.fidelity_with_pure rho ideal in
        let dist_fid =
          distribution_fidelity (Sim.State.probabilities ideal)
            (Sim.Density.probabilities rho)
        in
        Float.abs (esp -. state_fid) <= 0.05 && Float.abs (esp -. dist_fid) <= 0.05);
  ]

let () =
  Alcotest.run "schedule"
    [
      ( "schedule",
        [
          Alcotest.test_case "asap packing" `Quick test_asap_packing;
          Alcotest.test_case "busy/idle accounting" `Quick test_busy_idle;
          Alcotest.test_case "uniform depth = circuit depth" `Quick
            test_uniform_depth_matches_circuit;
          Alcotest.test_case "per-instruction durations" `Quick
            test_per_instruction_durations;
          Alcotest.test_case "empty circuit" `Quick test_empty_circuit;
          Alcotest.test_case "uniform oracle" `Quick test_uniform_oracle;
          Alcotest.test_case "timeline rendering" `Quick test_timeline_rendering;
        ]
        @ schedule_properties );
      ( "invariants",
        [
          Alcotest.test_case "scheduling only via Schedule" `Quick
            test_no_private_scheduling;
        ] );
    ]
