(* nuop — command-line interface to the reproduction library.

   Subcommands:
     decompose    decompose a two-qubit unitary into a hardware gate type
     devices      print the modelled devices and their calibration data
     study        run a benchmark suite against an instruction set
     compile      compile one benchmark through the compiler pipeline (--trace-passes)
     cache        warm, inspect and compact persistent curve snapshots
     calibration  print the Sec IX calibration cost model
     experiment   run registry experiments (the paper's tables and figures,
                  ablations, design, drift); --json writes a nuop-bench/1 artifact
     artifact     validate experiment artifacts (nuop-bench/1)
     trace        validate JSONL telemetry traces (nuop-trace/1)
     serve        resident compilation server (NDJSON over stdio or a Unix socket)
     request      one-shot client for a running `nuop serve --socket`
     serve-load   closed-loop load test of an in-process server, cold vs warm

   compile/study/devices output is rendered by Service.Ops — the same
   functions the resident server embeds in its responses — so serving is
   byte-identical to the one-shot CLI by construction.

   The global `--trace FILE` flag (any subcommand, also NUOP_TRACE=FILE)
   streams the run's telemetry — hierarchical spans, final counter
   totals, warnings — as JSONL through Obs; `nuop trace check FILE`
   validates such a file.  Every subcommand warms Decompose.Cache from
   NUOP_CACHE_FILE (if set) before running, so repeated invocations
   share their fidelity curves. *)

open Cmdliner

(* An angle inside a target or gate spec: anything but a finite float is
   an input error naming the whole spec. *)
let angle spec s =
  match float_of_string_opt s with
  | Some a when Float.is_finite a -> a
  | _ -> invalid_arg (Printf.sprintf "malformed angle %S in %s" s spec)

let known_targets rng = function
  | "su4" -> Apps.Qv.random_unitary rng
  | "swap" -> Gates.Twoq.swap
  | "cz" -> Gates.Twoq.cz
  | "iswap" -> Gates.Twoq.iswap
  | s when String.length s > 3 && String.sub s 0 3 = "zz:" ->
    Gates.Twoq.zz (angle s (String.sub s 3 (String.length s - 3)))
  | s when String.length s > 7 && String.sub s 0 7 = "cphase:" ->
    Gates.Twoq.cphase (angle s (String.sub s 7 (String.length s - 7)))
  | s -> invalid_arg (Printf.sprintf "unknown target %s" s)

let known_gate_types = function
  | "cz" -> Gates.Gate_type.s3
  | "syc" -> Gates.Gate_type.s1
  | "iswap" -> Gates.Gate_type.s4
  | "sqrt_iswap" -> Gates.Gate_type.s2
  | "swap" -> Gates.Gate_type.swap_type
  | "xy_pi" -> Gates.Gate_type.xy_pi
  | "full_fsim" -> Gates.Gate_type.Fsim_family
  | "full_xy" -> Gates.Gate_type.Xy_family
  | s when String.length s > 5 && String.sub s 0 5 = "fsim:" -> begin
    match String.split_on_char ',' (String.sub s 5 (String.length s - 5)) with
    | [ theta; phi ] ->
      Gates.Gate_type.fsim_type (angle s theta) (angle s phi)
    | _ -> invalid_arg "expected fsim:<theta>,<phi>"
  end
  | s -> invalid_arg (Printf.sprintf "unknown gate type %s" s)

(* ---------- decompose ---------- *)

let decompose_cmd =
  let target =
    Arg.(
      value
      & opt string "su4"
      & info [ "target"; "t" ] ~docv:"UNITARY"
          ~doc:
            "Unitary to decompose: su4 (random), swap, cz, iswap, zz:<angle>, \
             cphase:<angle>.")
  in
  let gate =
    Arg.(
      value
      & opt string "cz"
      & info [ "gate"; "g" ] ~docv:"GATE"
          ~doc:
            "Hardware gate type: cz, syc, iswap, sqrt_iswap, swap, xy_pi, \
             fsim:<theta>,<phi>, full_fsim, full_xy.")
  in
  let error_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "error" ] ~docv:"RATE"
          ~doc:
            "Hardware error rate per gate; switches to approximate (Eq 2) \
             decomposition.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let run target gate error_rate seed =
    let rng = Linalg.Rng.create seed in
    let u = known_targets rng target in
    let ty = known_gate_types gate in
    let d =
      match error_rate with
      | None -> Decompose.Nuop.decompose_exact ty ~target:u
      | Some e ->
        let fh layers = (1.0 -. e) ** float_of_int layers in
        Decompose.Nuop.decompose_approx ~fh ty ~target:u
    in
    Printf.printf "%s -> %s: %d gate applications\n" target gate d.Decompose.Nuop.layers;
    Printf.printf "decomposition fidelity F_d = %.8f" d.Decompose.Nuop.fd;
    if Option.is_some error_rate then
      Printf.printf ", overall F_u = %.6f" (Decompose.Nuop.overall_fidelity d);
    print_newline ();
    Printf.printf "minimal CZ-count lower bound (Weyl): %d\n\n" (Decompose.Weyl.cnot_count u);
    Qcir.Printer.print (Decompose.Nuop.to_circuit d ~n_qubits:2 ~qubits:(0, 1))
  in
  Cmd.v
    (Cmd.info "decompose" ~doc:"Decompose a two-qubit unitary with NuOp")
    Term.(const run $ target $ gate $ error_rate $ seed)

(* ---------- devices ---------- *)

(* The single device lookup every subcommand shares: a --device argument
   is either a registry name, which wins over a same-named file, or a
   path to a JSON snapshot (as written by `nuop devices dump`).  A spec
   that is neither lists the known names. *)
let resolve_device = Service.Ops.resolve_device

let device_arg =
  Arg.(
    value & opt string "sycamore"
    & info [ "device" ] ~docv:"DEVICE"
        ~doc:
          "Device: a registry name (see $(b,nuop devices list)) or a JSON \
           snapshot file written by $(b,nuop devices dump).")

let qubits_opt_arg =
  Arg.(
    value & opt (some int) None
    & info [ "qubits"; "n" ] ~docv:"N"
        ~doc:"Qubit count for sized devices (registry default otherwise).")

let devices_list () = print_string (Service.Ops.devices_list_text ())

let devices_list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List the registered device models")
    Term.(const devices_list $ const ())

let devices_show_cmd =
  let spec =
    Arg.(
      value & pos 0 string "sycamore54"
      & info [] ~docv:"DEVICE" ~doc:"Registry name or snapshot file.")
  in
  let run spec qubits =
    let d = resolve_device ?qubits spec in
    let topo = Device.topology d in
    Printf.printf "%s: %s\n" (Device.name d) (Device.description d);
    Printf.printf "  %d qubits, %d couplers\n" (Device.Topology.n_qubits topo)
      (Device.Topology.edge_count topo);
    let prov = Device.provenance d in
    (match prov.Device.Provenance.seed with
    | Some s -> Printf.printf "  builder seed %d\n" s
    | None -> ());
    (match prov.Device.Provenance.calibrated_at with
    | Some t -> Printf.printf "  calibrated at %s\n" t
    | None -> ());
    if prov.Device.Provenance.drifted_hours > 0.0 then
      Printf.printf "  drifted %.1f h since calibration\n"
        prov.Device.Provenance.drifted_hours;
    let cal = Device.calibration d in
    let types = Device.Calibration.calibrated_types cal in
    Printf.printf "  calibrated types: %s\n" (String.concat ", " types);
    (* names padded to the longest, so the columns line up *)
    let width = List.fold_left (fun w name -> max w (String.length name)) 0 types in
    List.iter
      (fun name ->
        Printf.printf "    %-*s mean error %.4f%%  mean duration %.1f ns\n" width name
          (100.0 *. Device.Calibration.mean_twoq_error cal name)
          (1e9 *. Device.Calibration.mean_twoq_duration cal name))
      types
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print one device's calibration summary")
    Term.(const run $ spec $ qubits_opt_arg)

let devices_dump_cmd =
  let spec =
    Arg.(
      value & pos 0 string "aspen8"
      & info [] ~docv:"DEVICE" ~doc:"Registry name or snapshot file.")
  in
  let output =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the snapshot to $(docv).")
  in
  let run spec qubits output =
    let d = resolve_device ?qubits spec in
    match output with
    | Some path ->
      Device.to_file path d;
      Printf.printf "wrote %s (%d qubits)\n" path (Device.n_qubits d)
    | None -> print_endline (Device.to_string d)
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"Serialize a device to a JSON snapshot (re-loadable via --device FILE)")
    Term.(const run $ spec $ qubits_opt_arg $ output)

let devices_cmd =
  Cmd.group
    ~default:Term.(const devices_list $ const ())
    (Cmd.info "devices" ~doc:"List, inspect and snapshot the modelled devices")
    [ devices_list_cmd; devices_show_cmd; devices_dump_cmd ]

(* ---------- study ---------- *)

let study_cmd =
  let isa_arg =
    Arg.(
      value & opt string "G7"
      & info [ "isa" ] ~docv:"ISA" ~doc:"Instruction set (Table II name, e.g. S1, G7, R5, Full_fSim).")
  in
  let app_arg =
    Arg.(
      value & opt string "qaoa"
      & info [ "app" ] ~docv:"APP" ~doc:"Benchmark: qv, qaoa, qft, fh.")
  in
  let qubits = Arg.(value & opt int 4 & info [ "qubits"; "n" ] ~doc:"Circuit width.") in
  let count = Arg.(value & opt int 5 & info [ "count" ] ~doc:"Number of random circuits.") in
  let seed = Arg.(value & opt int 2021 & info [ "seed" ] ~doc:"Random seed.") in
  let run isa_name app qubits count device seed =
    let isa = Isa.Set.find_exn isa_name in
    let device = resolve_device ~qubits:(max 4 qubits) device in
    let metric = Service.Ops.study_metric app in
    let circuits = Service.Ops.study_circuits ~app ~qubits ~count ~seed in
    let text, _ = Service.Ops.study_text ~device ~isa ~metric circuits in
    print_string text
  in
  Cmd.v
    (Cmd.info "study" ~doc:"Compile and simulate a benchmark against an instruction set")
    Term.(const run $ isa_arg $ app_arg $ qubits $ count $ device_arg $ seed)

(* ---------- compile ---------- *)

(* One benchmark-circuit builder shared by compile, `cache warm` and the
   service, so a cache warmed for a benchmark is warmed with exactly the
   curves that compiling it needs. *)
let benchmark_circuit = Service.Ops.benchmark_circuit

let compile_cmd =
  let isa_arg =
    Arg.(
      value & opt string "G7"
      & info [ "isa" ] ~docv:"ISA" ~doc:"Instruction set (Table II name, e.g. S1, G7, R5, Full_fSim).")
  in
  let app_arg =
    Arg.(
      value & opt string "qaoa"
      & info [ "app" ] ~docv:"APP" ~doc:"Benchmark: qv, qaoa, qft, fh.")
  in
  let qubits = Arg.(value & opt int 4 & info [ "qubits"; "n" ] ~doc:"Circuit width.") in
  let seed = Arg.(value & opt int 2021 & info [ "seed" ] ~doc:"Random seed.") in
  let optimize =
    Arg.(
      value & flag
      & info [ "optimize"; "O" ]
          ~doc:"Run the optimized stack (1Q-merge and trivial-gate elision peepholes).")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace-passes" ]
          ~doc:
            "Print a per-pass metrics table: wall time, 1Q/2Q/SWAP/depth deltas and \
             decomposition-cache hits for every pass in the stack.")
  in
  let print_circuit =
    Arg.(value & flag & info [ "print" ] ~doc:"Print the compiled circuit.")
  in
  let print_schedule =
    Arg.(
      value & flag
      & info [ "schedule" ]
          ~doc:
            "Print the timed executable: one row per ASAP moment with start time, \
             duration (calibrated per gate type) and instructions.")
  in
  let run isa_name app qubits device seed optimize trace print_circuit print_schedule =
    let isa = Isa.Set.find_exn isa_name in
    let device = resolve_device ~qubits:(max 4 qubits) device in
    let circuit = benchmark_circuit ~app ~qubits ~seed in
    let text, _ =
      Service.Ops.compile_text ~optimize ~trace_passes:trace ~print_schedule
        ~print_circuit ~device ~isa ~isa_name ~app circuit
    in
    print_string text
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile a benchmark circuit through the compiler pipeline")
    Term.(
      const run $ isa_arg $ app_arg $ qubits $ device_arg $ seed $ optimize $ trace
      $ print_circuit $ print_schedule)

(* ---------- cache ---------- *)

(* Persistent decomposition-cache tooling.  The file format is the
   Decompose.Persist curve snapshot (schema nuop-curves/1); every load
   below is corruption-tolerant — a bad file reports its reason and
   counts as empty, it never aborts the command with a backtrace. *)

let cache_file_pos =
  Arg.(
    value & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:"Curve-snapshot file; defaults to $(b,NUOP_CACHE_FILE) when unset.")

let required_cache_file = function
  | Some f -> f
  | None -> (
    match Sys.getenv_opt Decompose.Cache.env_var with
    | Some v -> (
      match Decompose.Cache.validate_env_file v with
      | Ok f -> f
      | Error reason ->
        invalid_arg
          (Printf.sprintf "invalid %s=%S (%s)" Decompose.Cache.env_var v reason))
    | None ->
      invalid_arg
        (Printf.sprintf "no cache file: pass FILE or set %s" Decompose.Cache.env_var))

let cache_stats_cmd =
  let run file =
    (match
       match file with
       | Some f -> Some f
       | None ->
         Option.bind (Sys.getenv_opt Decompose.Cache.env_var) (fun v ->
             Result.to_option (Decompose.Cache.validate_env_file v))
     with
    | Some f -> begin
      match Decompose.Persist.load f with
      | Ok entries ->
        let points =
          List.fold_left (fun acc (_, c) -> acc + Array.length c) 0 entries
        in
        let bytes =
          try
            let ic = open_in_bin f in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> in_channel_length ic)
          with Sys_error _ -> 0
        in
        Printf.printf "%s: schema %s, %d curves, %d curve points, %d bytes\n" f
          Decompose.Persist.schema (List.length entries) points bytes
      | Error reason -> Printf.printf "%s: unusable (%s) — counts as empty\n" f reason
    end
    | None -> print_endline "no cache file (pass FILE or set NUOP_CACHE_FILE)");
    let hits, misses = Decompose.Cache.stats () in
    Printf.printf
      "in-memory: %d entries (%d warm), capacity %d, %d hits (%d warm) / %d misses\n"
      (Decompose.Cache.size ())
      (Decompose.Cache.warm_count ())
      (Decompose.Cache.capacity ())
      hits
      (Decompose.Cache.warm_hits ())
      misses
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Summarize a curve snapshot and the in-memory cache")
    Term.(const run $ cache_file_pos)

let cache_warm_cmd =
  let isa_arg =
    Arg.(
      value & opt string "G7"
      & info [ "isa" ] ~docv:"ISA" ~doc:"Instruction set to warm curves for.")
  in
  let app_arg =
    Arg.(
      value & opt string "qaoa"
      & info [ "app" ] ~docv:"APP" ~doc:"Benchmark: qv, qaoa, qft, fh.")
  in
  let qubits = Arg.(value & opt int 4 & info [ "qubits"; "n" ] ~doc:"Circuit width.") in
  let seed = Arg.(value & opt int 2021 & info [ "seed" ] ~doc:"Random seed.") in
  let output =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Snapshot file to write (default: $(b,NUOP_CACHE_FILE)).")
  in
  let run isa_name app qubits device seed output =
    let file = required_cache_file output in
    (* merge any existing snapshot first: disk entries never clobber the
       in-memory table, so re-warming an existing file only grows it *)
    let loaded =
      if Sys.file_exists file then Decompose.Cache.load_from_file file else 0
    in
    let isa = Isa.Set.find_exn isa_name in
    let device = resolve_device ~qubits:(max 4 qubits) device in
    let circuit = benchmark_circuit ~app ~qubits ~seed in
    ignore (Compiler.Pipeline.compile ~device ~isa circuit);
    let saved = Decompose.Cache.save_to_file file in
    Printf.printf "%s: %d curves (%d loaded, %d computed by %s/%s)\n" file saved
      loaded (saved - loaded) app isa_name
  in
  Cmd.v
    (Cmd.info "warm"
       ~doc:
         "Compile a benchmark to populate the curve cache and save the snapshot \
          (merging with the file's previous contents)")
    Term.(const run $ isa_arg $ app_arg $ qubits $ device_arg $ seed $ output)

let cache_dump_cmd =
  let run file =
    let file = required_cache_file file in
    match Decompose.Persist.load file with
    | Error reason -> Printf.printf "%s: unusable (%s) — counts as empty\n" file reason
    | Ok entries ->
      Printf.printf "%s: %d curves\n" file (List.length entries);
      List.iter
        (fun (key, curve) ->
          let layers, _, fd =
            if Array.length curve = 0 then (0, [||], Float.nan)
            else curve.(Array.length curve - 1)
          in
          Printf.printf "  %-72s %d points, max %d layers, best F_d %.8f\n" key
            (Array.length curve) layers fd)
        entries
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"List every curve in a snapshot file")
    Term.(const run $ cache_file_pos)

let cache_gc_cmd =
  let max_entries =
    Arg.(
      value & opt (some int) None
      & info [ "max" ] ~docv:"N" ~doc:"Keep at most $(docv) curves (first wins).")
  in
  let run file max_entries =
    (match max_entries with
    | Some n when n < 0 -> invalid_arg (Printf.sprintf "--max must be at least 0 (got %d)" n)
    | _ -> ());
    let file = required_cache_file file in
    let entries =
      match Decompose.Persist.load file with
      | Ok entries -> entries
      | Error reason ->
        Obs.Log.warn "nuop: %s is unusable (%s); rewriting it empty" file reason;
        []
    in
    let seen = Hashtbl.create 64 in
    let deduped =
      List.filter
        (fun (key, _) ->
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        entries
    in
    let kept =
      match max_entries with
      | Some n -> List.filteri (fun i _ -> i < n) deduped
      | None -> deduped
    in
    Decompose.Persist.save file kept;
    Printf.printf "%s: %d curves in, %d kept\n" file (List.length entries)
      (List.length kept)
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Rewrite a snapshot file: validate, drop duplicate keys, optionally \
          truncate to --max curves")
    Term.(const run $ cache_file_pos $ max_entries)

let cache_cmd =
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Warm, inspect and compact persistent decomposition-curve snapshots")
    [ cache_stats_cmd; cache_warm_cmd; cache_dump_cmd; cache_gc_cmd ]

(* ---------- calibration ---------- *)

let calibration_cmd =
  let qubits = Arg.(value & opt int 54 & info [ "qubits"; "n" ] ~doc:"Device size.") in
  let types = Arg.(value & opt int 8 & info [ "types" ] ~doc:"Number of gate types.") in
  let run qubits types =
    let cost = Isa.Cost.of_type_count ~topology:(Isa.Cost.grid_topology qubits) types in
    Printf.printf "%d qubits (~%d couplers), %d gate types:\n" qubits cost.Isa.Cost.n_pairs
      types;
    Printf.printf "  circuits per type per pair: %d\n" Isa.Cost.circuits_per_type_pair;
    Printf.printf "  total calibration circuits: %.3e\n" (float_of_int cost.Isa.Cost.circuits);
    Printf.printf "  time: %.0f h serial, %.0f h with parallel batches\n"
      cost.Isa.Cost.hours_serial cost.Isa.Cost.hours_parallel;
    Printf.printf "  continuous fSim family overhead vs this set: %.0fx\n"
      (Isa.Cost.continuous_overhead_factor ~n_types:types)
  in
  Cmd.v
    (Cmd.info "calibration" ~doc:"Evaluate the Sec IX calibration cost model")
    Term.(const run $ qubits $ types)

(* ---------- qasm ---------- *)

let qasm_cmd =
  let target =
    Arg.(
      value & opt string "su4"
      & info [ "target"; "t" ] ~docv:"UNITARY"
          ~doc:"Unitary to compile: su4, swap, cz, iswap, zz:<angle>, cphase:<angle>.")
  in
  let gate =
    Arg.(
      value & opt string "cz"
      & info [ "gate"; "g" ] ~docv:"GATE" ~doc:"Hardware gate type (see decompose).")
  in
  let output =
    Arg.(
      value & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Write the OpenQASM 2.0 file here.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let run target gate output seed =
    let rng = Linalg.Rng.create seed in
    let u = known_targets rng target in
    let ty = known_gate_types gate in
    let d = Decompose.Nuop.decompose_exact ty ~target:u in
    let circuit = Decompose.Nuop.to_circuit d ~n_qubits:2 ~qubits:(0, 1) in
    match output with
    | Some path ->
      Qcir.Qasm.to_file path circuit;
      Printf.printf "wrote %s (%d instructions)\n" path (Qcir.Circuit.length circuit)
    | None -> print_string (Qcir.Qasm.to_string circuit)
  in
  Cmd.v
    (Cmd.info "qasm" ~doc:"Decompose a unitary and export OpenQASM 2.0")
    Term.(const run $ target $ gate $ output $ seed)

(* ---------- weyl ---------- *)

let weyl_cmd =
  let target =
    Arg.(
      value & opt string "su4"
      & info [ "target"; "t" ] ~docv:"UNITARY"
          ~doc:"Unitary to analyse: su4, swap, cz, iswap, zz:<angle>, cphase:<angle>.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let run target seed =
    let rng = Linalg.Rng.create seed in
    let u = known_targets rng target in
    Printf.printf "minimal CNOT/CZ count: %d\n" (Decompose.Weyl.cnot_count u);
    let g1, g2 = Decompose.Weyl.makhlin_invariants u in
    Printf.printf "Makhlin invariants: G1 = %.6f%+.6fi, G2 = %.6f\n" g1.Complex.re
      g1.Complex.im g2;
    let c1, c2, c3 = Decompose.Weyl.coordinates u in
    Printf.printf "Weyl coordinates: (%.6f, %.6f, %.6f)  (pi/4 = %.6f)\n" c1 c2 c3
      (Float.pi /. 4.0)
  in
  Cmd.v
    (Cmd.info "weyl" ~doc:"Weyl-chamber analysis of a two-qubit unitary")
    Term.(const run $ target $ seed)

(* ---------- experiment ---------- *)

(* One front end for the registry: each named experiment's text report
   and its `[NAME done in S s]` line go to stdout; --json (or -o) also
   writes the whole run as one nuop-bench/1 artifact (Core.Artifact). *)

let print_run (r : Core.Artifact.run) =
  print_string (Core.Report.render_text r.doc);
  Printf.printf "\n[%s done in %.1f s]\n%!" r.entry.Core.Registry.name r.seconds

(* A fresh BENCH_<date>.json: never clobber an earlier artifact from the
   same UTC day — take BENCH_<date>-2.json, -3.json, ... and say so. *)
let default_artifact_path () =
  let default =
    Printf.sprintf "BENCH_%s.json" (Obs.Clock.utc_date (Obs.Clock.now ()))
  in
  let path = Core.Report.fresh_path default in
  if path <> default then
    Obs.Log.warn "nuop: %s already exists; writing %s instead" default path;
  path

(* --cache FILE runs every selected experiment twice: once cold (empty
   decomposition cache) and once warmed from FILE, which is (re)written
   from the cold run's curves in between.  Because curves are
   deterministic, the two report texts must be byte-identical whenever
   the report itself embeds no cache statistics (the ablations
   pass-metrics table legitimately differs: its misses become warm
   hits).  The table is the warm/cold wall-time evidence for the
   persistence layer. *)
let run_cached cfg file entries =
  let rows =
    List.map
      (fun (e : Core.Registry.entry) ->
        Decompose.Cache.clear ();
        let cold = Core.Artifact.run ~attrs:[ ("mode", "cold") ] cfg e in
        (* grow the snapshot: existing file entries merge in (never
           clobbering this run's), then the union is saved atomically *)
        if Sys.file_exists file then ignore (Decompose.Cache.load_from_file file);
        let saved = Decompose.Cache.save_to_file file in
        Decompose.Cache.clear ();
        let loaded = Decompose.Cache.load_from_file file in
        let warm = Core.Artifact.run ~attrs:[ ("mode", "warm") ] cfg e in
        Printf.printf "[%s: cold %.1f s, warm %.1f s, %d curves saved, %d loaded]\n%!"
          e.name cold.seconds warm.seconds saved loaded;
        [
          e.name;
          Printf.sprintf "%.2f" cold.seconds;
          Printf.sprintf "%.2f" warm.seconds;
          (if warm.seconds > 0.0 then Printf.sprintf "%.1fx" (cold.seconds /. warm.seconds)
           else "-");
          (if String.equal
                (Core.Report.render_text cold.doc)
                (Core.Report.render_text warm.doc)
           then "yes"
           else "no");
        ])
      entries
  in
  print_newline ();
  Printf.printf "Warm-vs-cold wall time (cache file %s):\n" file;
  print_string
    (Core.Report.block_to_string
       (Core.Report.Table
          { header = [ "experiment"; "cold (s)"; "warm (s)"; "speedup"; "identical" ]; rows }))

let experiment_cmd =
  let names =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Experiments to run, in order: any of %s (any case), or $(b,all) for \
                the whole registry."
               (String.concat ", " Core.Registry.names)))
  in
  let paper = Arg.(value & flag & info [ "paper" ] ~doc:"Paper-scale sample counts.") in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Also write the run as one nuop-bench/1 artifact, to $(b,-o) FILE or to \
             a fresh BENCH_<date>.json; stdout still carries the text reports.")
  in
  let output =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the artifact to $(docv) (implies $(b,--json)).")
  in
  let cache =
    Arg.(
      value & opt (some string) None
      & info [ "cache" ] ~docv:"FILE"
          ~doc:
            "Run each experiment cold, save its curves to the snapshot $(docv), run \
             it again warm from the file, and print the warm-vs-cold table (not \
             with $(b,--json) or $(b,-o)).")
  in
  let run names paper json output cache =
    let cfg = if paper then Core.Config.paper else Core.Config.quick in
    let json = json || Option.is_some output in
    if json && Option.is_some cache then
      `Error (true, "--cache cannot be combined with --json or -o")
    else begin
      let entries = Core.Registry.select names in
      (match cache with
      | Some file -> run_cached cfg file entries
      | None ->
        let runs =
          List.map
            (fun e ->
              let r = Core.Artifact.run cfg e in
              print_run r;
              r)
            entries
        in
        if json then begin
          let path = match output with Some f -> f | None -> default_artifact_path () in
          let scale = if paper then "paper" else "quick" in
          Out_channel.with_open_text path (fun oc ->
              output_string oc (Core.Artifact.to_string ~scale runs));
          Printf.printf "wrote %s\n%!" path
        end);
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Run the paper's table/figure reproductions from the experiment registry")
    Term.(ret (const run $ names $ paper $ json $ output $ cache))

(* ---------- artifact ---------- *)

let artifact_check_cmd =
  let file =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"nuop-bench/1 artifact written by $(b,experiment --json).")
  in
  let run file =
    match Core.Artifact.check_file file with
    | Ok n -> Printf.printf "%s: all %d experiments present\n" file n
    | Error reason -> invalid_arg (Printf.sprintf "artifact %s: %s" file reason)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate an experiment artifact: it parses, has the nuop-bench/1 shape, \
          and covers every registered experiment")
    Term.(const run $ file)

let artifact_cmd =
  Cmd.group
    (Cmd.info "artifact" ~doc:"Validate experiment artifacts (schema nuop-bench/1)")
    [ artifact_check_cmd ]

(* ---------- trace ---------- *)

(* Telemetry-trace tooling over the JSONL files `--trace` / NUOP_TRACE
   write (schema nuop-trace/1).  `check` is the validator the CI alias
   pipes a traced compile into: every line must parse through Njson and
   span start/end events must nest and balance per domain. *)

let trace_check_cmd =
  let file =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"JSONL trace file written by $(b,--trace).")
  in
  let run file =
    match Obs.Trace.check_file file with
    | Ok s ->
      Printf.printf
        "%s: %d events — %d spans (max depth %d), %d counters, %d log messages; \
         spans nest and balance\n"
        file s.Obs.Trace.events s.Obs.Trace.spans s.Obs.Trace.max_depth
        s.Obs.Trace.counters s.Obs.Trace.messages
    | Error reason -> invalid_arg (Printf.sprintf "trace file %s: %s" file reason)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate a telemetry trace: every line parses as JSON and spans \
          nest/balance per domain")
    Term.(const run $ file)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"Validate JSONL telemetry traces (schema nuop-trace/1)")
    [ trace_check_cmd ]

(* ---------- serve / request ---------- *)

let serve_cmd =
  let socket =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) (one NDJSON connection per \
             client).  Without it the server speaks NDJSON on stdin/stdout and \
             drains at EOF.")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bounded job-queue depth; a full queue answers $(b,overloaded) \
             immediately instead of stalling the client.")
  in
  let workers =
    Arg.(
      value & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains sharing the warm decomposition cache (default: the \
             Domain-pool size, NUOP_DOMAINS).")
  in
  let run socket queue workers =
    let config =
      {
        Service.Server.queue_depth = queue;
        workers =
          (match workers with
          | Some w -> w
          | None -> Service.Server.default_config.Service.Server.workers);
      }
    in
    let t = Service.Server.create config in
    match socket with
    | Some path -> Service.Server.serve_socket t path
    | None -> Service.Server.serve_channels t stdin stdout
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident compilation server (NDJSON protocol nuop-rpc/1 over \
          stdio or a Unix-domain socket)")
    Term.(const run $ socket $ queue $ workers)

let request_cmd =
  let socket =
    Arg.(
      required & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Socket of a running $(b,nuop serve).")
  in
  let op =
    Arg.(
      value & pos 0 string "ping"
      & info [] ~docv:"OP" ~doc:"Op: compile, score, devices, stats, ping.")
  in
  let params =
    Arg.(
      value & opt (some string) None
      & info [ "params" ] ~docv:"JSON"
          ~doc:
            "Op parameters as a JSON object, e.g. \
             '{\"app\":\"qft\",\"qubits\":5,\"isa\":\"S1\"}'.")
  in
  let deadline =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Per-request deadline; a late answer becomes a $(b,timeout) error.")
  in
  let id =
    Arg.(
      value & opt string "1"
      & info [ "id" ] ~docv:"ID" ~doc:"Request id echoed in the response.")
  in
  let raw =
    Arg.(
      value & opt (some string) None
      & info [ "raw" ] ~docv:"LINE"
          ~doc:
            "Send $(docv) verbatim instead of building a request — for exercising \
             the server's protocol errors.")
  in
  (* Exit 0 whenever a response line arrives: a typed error (bad_request,
     timeout, ...) is the protocol working, not a transport failure. *)
  let run socket op params deadline id raw =
    let line =
      match raw with
      | Some l -> l
      | None ->
        let body =
          match params with
          | None -> []
          | Some p -> (
            match Njson.of_string_result p with
            | Ok (Njson.Obj kvs) -> kvs
            | Ok _ -> invalid_arg "--params must be a JSON object"
            | Error e -> invalid_arg (Printf.sprintf "--params: %s" e))
        in
        let fields =
          (("id", Njson.String id) :: ("op", Njson.String op)
          :: (match deadline with
             | Some ms -> [ ("deadline_ms", Njson.Float ms) ]
             | None -> []))
          @ body
        in
        Njson.to_string ~indent:0 (Njson.Obj fields)
    in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX socket)
     with Unix.Unix_error (e, _, _) ->
       invalid_arg
         (Printf.sprintf "cannot connect to %s (%s) — is nuop serve running?" socket
            (Unix.error_message e)));
    let oc = Unix.out_channel_of_descr fd in
    let ic = Unix.in_channel_of_descr fd in
    output_string oc line;
    output_char oc '\n';
    flush oc;
    (match input_line ic with
    | response -> print_endline response
    | exception End_of_file ->
      invalid_arg "connection closed before a response arrived");
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:"Send one request to a running $(b,nuop serve) socket and print the reply")
    Term.(const run $ socket $ op $ params $ deadline $ id $ raw)

(* ---------- serve-load: closed-loop load generator ---------- *)

(* Drives an in-process Service.Server exactly the way the socket
   transport does (submit_line + reply callbacks), keeping [clients]
   requests outstanding: each reply immediately submits the next
   request, so measured latency includes queueing behind one's own
   concurrency, never behind an artificially open arrival process.

   Two phases over the SAME request set: cold (decomposition cache
   cleared) and warm (the cold phase's curves resident).  Per-request
   seeds differ, so the cold phase really computes distinct curves; the
   warm phase replays them as pure cache hits — the warm/cold throughput
   ratio is the service-side evidence for the shared warm cache. *)

let serve_load_line i =
  Njson.to_string ~indent:0
    (Njson.Obj
       [
         ("id", Njson.Int i);
         ("op", Njson.String "compile");
         ("app", Njson.String "qaoa");
         ("qubits", Njson.Int 4);
         ("seed", Njson.Int (3000 + i));
       ])

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))
  end

let serve_load_phase ~requests ~clients config =
  let t = Service.Server.create config in
  let lock = Mutex.create () in
  let all_done = Condition.create () in
  let completed = ref 0 in
  let errors = ref 0 in
  let latencies = Array.make requests 0.0 in
  let next = Atomic.make 0 in
  let t0 = Service.Deadline.now_ms () in
  (* closed loop: a reply on a worker domain fires the next submission *)
  let rec submit_next () =
    let i = Atomic.fetch_and_add next 1 in
    if i < requests then begin
      let start = Service.Deadline.now_ms () in
      Service.Server.submit_line t
        ~reply:(fun line ->
          latencies.(i) <- Service.Deadline.now_ms () -. start;
          let ok =
            match Njson.of_string_result line with
            | Ok j -> Njson.member "ok" j = Some (Njson.Bool true)
            | Error _ -> false
          in
          Mutex.lock lock;
          if not ok then incr errors;
          incr completed;
          Condition.signal all_done;
          Mutex.unlock lock;
          submit_next ())
        (serve_load_line i)
    end
  in
  for _ = 1 to min clients requests do
    submit_next ()
  done;
  Mutex.lock lock;
  while !completed < requests do
    Condition.wait all_done lock
  done;
  Mutex.unlock lock;
  let elapsed_s = (Service.Deadline.now_ms () -. t0) /. 1000.0 in
  Service.Server.drain t;
  Array.sort compare latencies;
  let throughput =
    if elapsed_s > 0.0 then float_of_int requests /. elapsed_s else 0.0
  in
  [
    Printf.sprintf "%.1f" throughput;
    Printf.sprintf "%.1f" (percentile latencies 50.0);
    Printf.sprintf "%.1f" (percentile latencies 95.0);
    Printf.sprintf "%.1f" (percentile latencies 99.0);
    string_of_int !errors;
  ],
  throughput

let serve_load_cmd =
  let count name default doc =
    Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)
  in
  let requests = count "requests" 40 "Requests per phase." in
  let clients = count "clients" 8 "Requests kept outstanding (closed loop)." in
  let workers =
    Arg.(
      value & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains (default: the Domain-pool size, NUOP_DOMAINS).")
  in
  let run requests clients workers =
    let workers = Option.value workers ~default:Service.Server.default_config.workers in
    List.iter
      (fun (flag, n) ->
        if n <= 0 then
          invalid_arg (Printf.sprintf "--%s expects a positive integer, got %d" flag n))
      [ ("requests", requests); ("clients", clients); ("workers", workers) ];
    let config =
      {
        Service.Server.workers;
        (* the closed loop holds at most [clients] outstanding, so this
           queue never refuses — serve-load measures latency, the queue
           property tests measure backpressure *)
        queue_depth = max 64 (2 * clients);
      }
    in
    Printf.printf
      "serve-load: %d workers, %d closed-loop clients, %d requests per phase\n%!"
      workers clients requests;
    Decompose.Cache.clear ();
    let cold, cold_tp = serve_load_phase ~requests ~clients config in
    let warm, warm_tp = serve_load_phase ~requests ~clients config in
    print_string
      (Core.Report.block_to_string
         (Core.Report.Table
            {
              header = [ "phase"; "req/s"; "p50 (ms)"; "p95 (ms)"; "p99 (ms)"; "errors" ];
              rows = [ "cold" :: cold; "warm" :: warm ];
            }));
    Printf.printf "warm/cold throughput: %.1fx\n%!"
      (if cold_tp > 0.0 then warm_tp /. cold_tp else 0.0)
  in
  Cmd.v
    (Cmd.info "serve-load"
       ~doc:
         "Drive an in-process server closed-loop and report throughput and latency \
          percentiles, cold cache vs warm")
    Term.(const run $ requests $ clients $ workers)

(* ---------- entry point ---------- *)

(* The global --trace FILE flag is shared by every subcommand, so it is
   peeled off argv before Cmdliner dispatch (Cmdliner has no true global
   options across a command group). *)
let strip_trace_flag args =
  let prefix = "--trace=" in
  let plen = String.length prefix in
  let rec loop acc trace = function
    | [] -> Ok (List.rev acc, trace)
    | "--trace" :: [] -> Error "option --trace needs a FILE argument"
    | "--trace" :: file :: rest -> loop acc (Some file) rest
    | a :: rest when String.length a > plen && String.sub a 0 plen = prefix ->
      loop acc (Some (String.sub a plen (String.length a - plen))) rest
    | a :: rest -> loop (a :: acc) trace rest
  in
  loop [] None args

let () =
  let doc = "calibration & expressivity-efficient quantum instruction sets (ISCA 2021 reproduction)" in
  let info = Cmd.info "nuop" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        decompose_cmd;
        devices_cmd;
        study_cmd;
        compile_cmd;
        cache_cmd;
        calibration_cmd;
        qasm_cmd;
        weyl_cmd;
        experiment_cmd;
        artifact_cmd;
        trace_cmd;
        serve_cmd;
        request_cmd;
        serve_load_cmd;
      ]
  in
  (* telemetry first: NUOP_TRACE, overridden by an explicit --trace FILE
     anywhere on the command line (both JSONL, closed at exit) *)
  Obs.Trace.init_from_env ();
  (* surface a malformed NUOP_LOG_LEVEL even on runs that log nothing *)
  Obs.Log.check_env ();
  let argv =
    match strip_trace_flag (Array.to_list Sys.argv |> List.tl) with
    | Error msg ->
      Obs.Log.error "nuop: %s" msg;
      exit Cmd.Exit.cli_error
    | Ok (rest, trace) ->
      (match trace with Some file -> Obs.Trace.enable_file file | None -> ());
      Array.of_list (Sys.argv.(0) :: rest)
  in
  (* warm the decomposition cache from NUOP_CACHE_FILE before any
     subcommand runs; corrupt or missing files warn and start cold *)
  ignore (Decompose.Cache.warm_from_env ());
  (* bad user input (unknown device/set/app, malformed snapshot) raises
     Invalid_argument with a self-explanatory message — print it as a
     CLI error instead of a backtrace *)
  exit
    (try Cmd.eval ~catch:false ~argv group
     with Invalid_argument msg ->
       prerr_endline ("nuop: " ^ msg);
       Cmd.Exit.cli_error)
