(* End-to-end compilation: place -> route -> NuOp-decompose with noise
   adaptivity across gate types (Fig 1's toolflow), then compact and
   schedule — Pass.stack run over one context, recording per-pass
   metrics: wall time, 1Q/2Q/SWAP/depth/duration deltas, and
   decomposition-cache hits.

   The output circuit is renumbered onto the qubits it actually touches
   so the exact density simulator works on the smallest space, while the
   noise model keeps per-instruction error rates measured on the original
   device edges. *)

type options = Pass.options = {
  nuop : Decompose.Nuop.options;
  approximate : bool;  (** Eq 2 approximate mode vs exact thresholded mode *)
  exact_threshold : float;
  adaptive : bool;  (** noise adaptivity across gate types *)
  optimize : bool;  (** run the peephole passes before compaction *)
}

let default_options = Pass.default_options

type compiled = {
  circuit : Qcir.Circuit.t;  (** compact qubits, hardware gates only *)
  twoq_errors : float array;  (** per instruction index (0.0 for 1Q) *)
  qubit_map : int array;  (** compact qubit -> device qubit *)
  final_layout : int array;  (** logical qubit -> compact qubit at readout *)
  n_logical : int;
  swap_count : int;
  twoq_count : int;
  isa : Isa.Set.t;
  schedule : Schedule.t;  (** timed executable over calibrated durations *)
  duration : float;  (** [Schedule.total_duration schedule], seconds *)
  critical_depth : int;  (** [Schedule.depth schedule]: moment count *)
}

(* ---------- per-pass metrics ---------- *)

type pass_metrics = {
  pass_name : string;
  time_s : float;
  oneq_before : int;
  oneq_after : int;
  twoq_before : int;
  twoq_after : int;
  swaps_before : int;
  swaps_after : int;
  depth_before : int;
  depth_after : int;
  duration_before : float;  (** timed-executable length, seconds *)
  duration_after : float;
  cache_hits : int;  (** fidelity-curve cache hits during the pass *)
  cache_misses : int;
  cache_warm_hits : int;
      (** subset of [cache_hits] served by disk-loaded (warm) entries *)
}

let snapshot (ctx : Pass.Context.t) =
  let c = ctx.Pass.Context.circuit in
  let duration =
    match ctx.Pass.Context.schedule with
    | Some s -> Schedule.total_duration s
    | None -> Schedule.total_duration (Pass.timed_schedule ctx)
  in
  ( Qcir.Circuit.one_qubit_count c,
    Qcir.Circuit.two_qubit_count c,
    ctx.Pass.Context.swap_count,
    Qcir.Circuit.depth c,
    duration )

let run_pass pass ctx =
  let oneq_before, twoq_before, swaps_before, depth_before, duration_before =
    snapshot ctx
  in
  let hits0, misses0 = Decompose.Cache.stats () in
  let warm0 = Decompose.Cache.warm_hits () in
  (* The span clock is the one wall-clock source (the old process-CPU
     clock meant a pass blocked on I/O or sleeping reported zero).
     [time_s] covers exactly the pass body; the span's own end event
     additionally covers the metric snapshot below and carries the
     deltas as attributes. *)
  let span = Obs.Span.enter ("pass." ^ Pass.name pass) in
  Pass.run pass ctx;
  let time_s = Obs.Span.elapsed span in
  let hits1, misses1 = Decompose.Cache.stats () in
  let warm1 = Decompose.Cache.warm_hits () in
  let oneq_after, twoq_after, swaps_after, depth_after, duration_after =
    snapshot ctx
  in
  ignore
    (Obs.Span.exit span
       ~attrs:
         [
           ("oneq", string_of_int oneq_after);
           ("twoq", string_of_int twoq_after);
           ("swaps", string_of_int swaps_after);
           ("depth", string_of_int depth_after);
           ("duration_ns", Printf.sprintf "%.0f" (1e9 *. duration_after));
           ("cache_hits", string_of_int (hits1 - hits0));
           ("cache_misses", string_of_int (misses1 - misses0));
           ("cache_warm_hits", string_of_int (warm1 - warm0));
         ]);
  {
    pass_name = Pass.name pass;
    time_s;
    oneq_before;
    oneq_after;
    twoq_before;
    twoq_after;
    swaps_before;
    swaps_after;
    depth_before;
    depth_after;
    duration_before;
    duration_after;
    cache_hits = hits1 - hits0;
    cache_misses = misses1 - misses0;
    cache_warm_hits = warm1 - warm0;
  }

(* ---------- compilation ---------- *)

let compile_with_metrics ?(options = default_options) ~device ~isa ?placement circuit =
  let ctx = Pass.Context.create ~options ~device ~isa ?placement circuit in
  let stack = Pass.stack options in
  (* perfbench's compiler.compile_ms and compiler.pass.<name>_ms read
     the spans "pass_manager.run" and "pass.<name>" from traces
     (perfbench/NOTES.md), so those names stay as they are *)
  let metrics =
    Obs.Span.with_
      ~attrs:[ ("passes", string_of_int (List.length stack)) ]
      "pass_manager.run"
      (fun () -> List.map (fun pass -> run_pass pass ctx) stack)
  in
  let open Pass.Context in
  (* the stack's last pass schedules the compacted circuit *)
  let schedule = Option.get ctx.schedule in
  ( {
      circuit = ctx.circuit;
      twoq_errors = ctx.errors;
      qubit_map = ctx.qubit_map;
      final_layout = ctx.final_layout;
      n_logical = ctx.n_logical;
      swap_count = ctx.swap_count;
      twoq_count = Qcir.Circuit.two_qubit_count ctx.circuit;
      isa = ctx.isa;
      schedule;
      duration = Schedule.total_duration schedule;
      critical_depth = Schedule.depth schedule;
    },
    metrics )

let compile ?options ~device ~isa ?placement circuit =
  fst (compile_with_metrics ?options ~device ~isa ?placement circuit)

(* ---------- rendering (header + rows for a Core.Report table) ---------- *)

let header = [ "pass"; "time"; "1Q"; "2Q"; "SWAPs"; "depth"; "duration"; "cache h/m" ]

let delta_cell after before =
  if after = before then string_of_int after
  else Printf.sprintf "%d (%+d)" after (after - before)

(* Durations render in nanoseconds — the scale of every calibrated gate
   time — with the delta when a pass changed the critical path. *)
let duration_cell after before =
  let ns v = Printf.sprintf "%.0f ns" (1e9 *. v) in
  if Float.abs (after -. before) <= 1e-12 then ns after
  else Printf.sprintf "%s (%+.0f)" (ns after) (1e9 *. (after -. before))

(* Warm hits only appear when a snapshot file was loaded, so cold runs
   render exactly as before (the fig11 golden and the warm-equals-cold
   CI diff both rely on that). *)
let cache_cell m =
  if m.cache_warm_hits > 0 then
    Printf.sprintf "%d (%d warm)/%d" m.cache_hits m.cache_warm_hits m.cache_misses
  else Printf.sprintf "%d/%d" m.cache_hits m.cache_misses

let row m =
  [
    m.pass_name;
    Printf.sprintf "%.1f ms" (1000.0 *. m.time_s);
    delta_cell m.oneq_after m.oneq_before;
    delta_cell m.twoq_after m.twoq_before;
    delta_cell m.swaps_after m.swaps_before;
    delta_cell m.depth_after m.depth_before;
    duration_cell m.duration_after m.duration_before;
    cache_cell m;
  ]

let rows metrics = List.map row metrics

let noise_model ~device compiled =
  let cal = Device.calibration device in
  {
    Sim.Noisy.twoq_error =
      (fun index _instr ->
        assert (index >= 0 && index < Array.length compiled.twoq_errors);
        compiled.twoq_errors.(index));
    oneq_error = (fun q -> Device.Calibration.oneq_error cal compiled.qubit_map.(q));
    readout_error = (fun q -> Device.Calibration.readout_error cal compiled.qubit_map.(q));
    t1 = (fun q -> Device.Calibration.t1 cal compiled.qubit_map.(q));
    t2 = (fun q -> Device.Calibration.t2 cal compiled.qubit_map.(q));
    duration_1q = Device.Calibration.duration_1q cal;
    duration_2q = Device.Calibration.duration_2q cal;
  }

(* Map a compact-space probability vector back to logical qubit order:
   logical qubit l is read out at compact position final_layout(l);
   unoccupied compact qubits (routing scratch) are marginalized out —
   they carry no logical information. *)
let logical_probabilities compiled probs =
  let n_compact = Array.length compiled.qubit_map in
  assert (Array.length probs = 1 lsl n_compact);
  let nl = compiled.n_logical in
  let out = Array.make (1 lsl nl) 0.0 in
  Array.iteri
    (fun idx p ->
      let x = ref 0 in
      for l = 0 to nl - 1 do
        if (idx lsr compiled.final_layout.(l)) land 1 = 1 then x := !x lor (1 lsl l)
      done;
      out.(!x) <- out.(!x) +. p)
    probs;
  out
