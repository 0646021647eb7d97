(* End-to-end compilation: place -> route -> NuOp-decompose with noise
   adaptivity across gate types (Fig 1's toolflow), then compact and
   schedule — Pass.stack run over one context.  [compile_with_metrics]
   also records per-pass metrics: wall time, 1Q/2Q/SWAP/depth/duration
   after the pass, and decomposition-cache hits.

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
  oneq_after : int;
  twoq_after : int;
  swaps_after : int;
  depth_after : int;
  duration_after : float;  (** timed-executable length, seconds *)
  cache_hits : int;  (** fidelity-curve cache hits during the pass *)
  cache_misses : int;
  cache_warm_hits : int;
      (** subset of [cache_hits] served by disk-loaded (warm) entries *)
}

let cache_counts () =
  let hits, misses = Decompose.Cache.stats () in
  (hits, misses, Decompose.Cache.warm_hits ())

(* Run one pass under its span.  With [record] set, the metrics are
   taken once, after the body: a pass's "before" is the previous pass's
   "after", which is how [rows] renders the deltas.  The span clock is
   the one wall-clock source, and [time_s] covers exactly the pass body;
   the span's own end event also covers the snapshot and carries it as
   attributes. *)
let run_pass ~record pass ctx =
  let hits0, misses0, warm0 = if record then cache_counts () else (0, 0, 0) in
  let span = Obs.Span.enter ("pass." ^ Pass.name pass) in
  Pass.run pass ctx;
  let time_s = Obs.Span.elapsed span in
  if not record then begin
    ignore (Obs.Span.exit span);
    None
  end
  else begin
    let hits1, misses1, warm1 = cache_counts () in
    let c = ctx.Pass.Context.circuit in
    let duration =
      match ctx.Pass.Context.schedule with
      | Some s -> Schedule.total_duration s
      | None -> Schedule.total_duration (Pass.timed_schedule ctx)
    in
    let m =
      {
        pass_name = Pass.name pass;
        time_s;
        oneq_after = Qcir.Circuit.one_qubit_count c;
        twoq_after = Qcir.Circuit.two_qubit_count c;
        swaps_after = ctx.Pass.Context.swap_count;
        depth_after = Qcir.Circuit.depth c;
        duration_after = duration;
        cache_hits = hits1 - hits0;
        cache_misses = misses1 - misses0;
        cache_warm_hits = warm1 - warm0;
      }
    in
    ignore
      (Obs.Span.exit span
         ~attrs:
           [
             ("oneq", string_of_int m.oneq_after);
             ("twoq", string_of_int m.twoq_after);
             ("swaps", string_of_int m.swaps_after);
             ("depth", string_of_int m.depth_after);
             ("duration_ns", Printf.sprintf "%.0f" (1e9 *. m.duration_after));
             ("cache_hits", string_of_int m.cache_hits);
             ("cache_misses", string_of_int m.cache_misses);
             ("cache_warm_hits", string_of_int m.cache_warm_hits);
           ]);
    Some m
  end

(* ---------- compilation ---------- *)

(* Metrics are taken when the caller reads them or a trace sink is
   there to carry them on the pass spans. *)
let run ~record ?(options = default_options) ~device ~isa ?placement circuit =
  let ctx = Pass.Context.create ~options ~device ~isa ?placement circuit in
  let stack = Pass.stack options in
  let record = record || Obs.Sink.active () in
  (* perfbench's compiler.compile_ms and compiler.pass.<name>_ms read
     the spans "pass_manager.run" and "pass.<name>" from traces
     (perfbench/NOTES.md), so those names stay as they are *)
  let metrics =
    Obs.Span.with_
      ~attrs:[ ("passes", string_of_int (List.length stack)) ]
      "pass_manager.run"
      (fun () -> List.filter_map (fun pass -> run_pass ~record pass ctx) stack)
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

let compile_with_metrics = run ~record:true

let compile ?options ~device ~isa ?placement circuit =
  fst (run ~record:false ?options ~device ~isa ?placement circuit)

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

let row ~prev m =
  [
    m.pass_name;
    Printf.sprintf "%.1f ms" (1000.0 *. m.time_s);
    delta_cell m.oneq_after prev.oneq_after;
    delta_cell m.twoq_after prev.twoq_after;
    delta_cell m.swaps_after prev.swaps_after;
    delta_cell m.depth_after prev.depth_after;
    duration_cell m.duration_after prev.duration_after;
    cache_cell m;
  ]

(* Each row's deltas are against the previous row; the first row shows
   none (the placement pass leaves the circuit as it found it). *)
let rows = function
  | [] -> []
  | first :: _ as metrics ->
    snd (List.fold_left_map (fun prev m -> (m, row ~prev m)) first metrics)

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
