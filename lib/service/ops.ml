(* Op implementations over the compilation stack.

   The render helpers build the same bytes the one-shot CLI prints (the
   CLI calls them too), into a Buffer instead of stdout, so a served
   response can embed CLI-identical text.  [execute] is the pure part
   of request handling: body -> result document, with every user error
   as a typed value. *)

(* Registry names win: a file reads only when no registry entry
   matches, so a file named like a registry device never shadows it.  A
   spec that is neither fails in the registry lookup, naming the known
   devices. *)
let resolve_device ?qubits spec =
  if Option.is_none (Device.Registry.find spec) && Sys.file_exists spec
     && not (Sys.is_directory spec)
  then Device.of_file spec
  else Device.Registry.build ?qubits spec

(* Request parameters reach the app builders from the CLI and from the
   wire, so their preconditions (which the builders only assert) are
   checked here and fail as Invalid_argument naming the field.  [fh]
   widens any request to its own 4-qubit minimum. *)
let check_qubits ~app qubits =
  let least =
    match app with "qv" | "qaoa" -> 2 | "qft" -> 1 | _ -> min_int
  in
  if qubits < least then
    invalid_arg
      (Printf.sprintf "qubits must be at least %d for app %s (got %d)" least app qubits)

let benchmark_circuit ~app ~qubits ~seed =
  check_qubits ~app qubits;
  let rng = Linalg.Rng.create seed in
  match app with
  | "qv" -> List.hd (Apps.Qv.circuits rng ~count:1 qubits)
  | "qaoa" -> List.hd (Apps.Qaoa.circuits rng ~count:1 qubits)
  | "qft" -> Apps.Qft.circuit qubits
  | "fh" -> Apps.Fermi_hubbard.circuit (max 4 qubits)
  | a -> invalid_arg (Printf.sprintf "unknown app %s" a)

let study_metric = function
  | "qv" -> Core.Study.Hop
  | "qaoa" -> Core.Study.Xed
  | "qft" -> Core.Study.State_fidelity
  | "fh" -> Core.Study.Xeb_fidelity
  | a -> invalid_arg (Printf.sprintf "unknown app %s" a)

let study_circuits ~app ~qubits ~count ~seed =
  if count < 1 then invalid_arg (Printf.sprintf "count must be at least 1 (got %d)" count);
  check_qubits ~app qubits;
  let rng = Linalg.Rng.create seed in
  match app with
  | "qv" -> Apps.Qv.circuits rng ~count qubits
  | "qaoa" -> Apps.Qaoa.circuits rng ~count qubits
  | "qft" -> [ Apps.Qft.circuit qubits ]
  | "fh" -> [ Apps.Fermi_hubbard.circuit (max 4 qubits) ]
  | a -> invalid_arg (Printf.sprintf "unknown app %s" a)

(* ---------- render helpers (the CLI's output, as strings) ---------- *)

let compile_text ?(optimize = false) ?(trace_passes = false) ?(print_schedule = false)
    ?(print_circuit = false) ~device ~isa ~isa_name ~app circuit =
  let options = { Compiler.Pipeline.default_options with optimize } in
  let compiled, metrics =
    if trace_passes then Compiler.Pipeline.compile_with_metrics ~options ~device ~isa circuit
    else (Compiler.Pipeline.compile ~options ~device ~isa circuit, [])
  in
  let buf = Buffer.create 512 in
  Printf.bprintf buf "%s on %s via %s stack (%d passes):\n" app isa_name
    (if optimize then "optimized" else "default")
    (List.length (Compiler.Pass.stack options));
  Printf.bprintf buf
    "  %d instructions, %d two-qubit gates, %d SWAPs, depth %d, %d qubits\n"
    (Qcir.Circuit.length compiled.Compiler.Pipeline.circuit)
    compiled.Compiler.Pipeline.twoq_count compiled.Compiler.Pipeline.swap_count
    (Qcir.Circuit.depth compiled.Compiler.Pipeline.circuit)
    (Array.length compiled.Compiler.Pipeline.qubit_map);
  Printf.bprintf buf "  duration %.1f ns over %d moments, ESP %.4f\n"
    (1e9 *. compiled.Compiler.Pipeline.duration)
    compiled.Compiler.Pipeline.critical_depth
    (Core.Study.esp ~device compiled);
  if trace_passes then
    Buffer.add_string buf
      (Core.Report.block_to_string
         (Core.Report.Table
            {
              header = Compiler.Pipeline.header;
              rows = Compiler.Pipeline.rows metrics;
            }));
  if print_schedule then
    Buffer.add_string buf (Schedule.to_string compiled.Compiler.Pipeline.schedule);
  if print_circuit then
    Buffer.add_string buf (Qcir.Printer.render compiled.Compiler.Pipeline.circuit);
  (Buffer.contents buf, compiled)

let study_text ~device ~isa ~metric circuits =
  let r = Core.Study.evaluate_suite ~device ~isa ~metric circuits in
  (Core.Report.block_to_string (Core.Study.results_table ~metric [ r ]), r)

let devices_list_text () =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "%-12s %7s  %s\n" "name" "qubits" "description";
  List.iter
    (fun e ->
      Printf.bprintf buf "%-12s %7d  %s\n" e.Device.Registry.name
        e.Device.Registry.default_qubits e.Device.Registry.description)
    Device.Registry.entries;
  Buffer.contents buf

(* ---------- op execution ---------- *)

let ( let* ) = Result.bind

(* compile/score parameter block shared by both ops.  A served request
   names a registry device, never a file: the CLI's [resolve_device]
   would let a client make the server read any path. *)
let common_params body =
  let* isa_name = Protocol.str_field ~default:"G7" body "isa" in
  let* app = Protocol.str_field ~default:"qaoa" body "app" in
  let* qubits = Protocol.int_field ~default:4 body "qubits" in
  let* seed = Protocol.int_field ~default:2021 body "seed" in
  let* device_name = Protocol.str_field ~default:"sycamore" body "device" in
  Ok (isa_name, app, qubits, seed, device_name)

(* User errors live in Invalid_argument (unknown set/device/app, bad
   snapshot) or Qasm.Parse_error (bad circuit text); both become typed
   Bad_request values here so [execute] never raises on bad input. *)
let guard f =
  match f () with
  | v -> v
  | exception Invalid_argument m -> Error (Protocol.err Protocol.Bad_request "%s" m)
  | exception Qcir.Qasm.Parse_error e ->
    Error
      (Protocol.err Protocol.Bad_request "QASM circuit: %s" (Qcir.Qasm.error_to_string e))

let run_compile body =
  guard @@ fun () ->
  let* isa_name, app, qubits, seed, device_name = common_params body in
  let* optimize = Protocol.bool_field ~default:false body "optimize" in
  let* trace_passes = Protocol.bool_field ~default:false body "trace_passes" in
  let* print_schedule = Protocol.bool_field ~default:false body "schedule" in
  let* print_circuit = Protocol.bool_field ~default:false body "print" in
  let* qasm = Protocol.opt_str_field body "qasm" in
  let isa = Isa.Set.find_exn isa_name in
  let app, circuit =
    match qasm with
    | Some text -> ("qasm", Qcir.Qasm.of_string text)
    | None -> (app, benchmark_circuit ~app ~qubits ~seed)
  in
  let qubits = max qubits (Qcir.Circuit.n_qubits circuit) in
  let device = Device.Registry.build ~qubits:(max 4 qubits) device_name in
  let text, compiled =
    compile_text ~optimize ~trace_passes ~print_schedule ~print_circuit ~device ~isa
      ~isa_name ~app circuit
  in
  Ok
    (Njson.Obj
       [
         ("output", Njson.String text);
         ( "instructions",
           Njson.Int (Qcir.Circuit.length compiled.Compiler.Pipeline.circuit) );
         ("twoq", Njson.Int compiled.Compiler.Pipeline.twoq_count);
         ("swaps", Njson.Int compiled.Compiler.Pipeline.swap_count);
         ("depth", Njson.Int (Qcir.Circuit.depth compiled.Compiler.Pipeline.circuit));
         ("moments", Njson.Int compiled.Compiler.Pipeline.critical_depth);
         ("duration_ns", Njson.Float (1e9 *. compiled.Compiler.Pipeline.duration));
       ])

let run_score body =
  guard @@ fun () ->
  let* isa_name, app, qubits, seed, device_name = common_params body in
  let* count = Protocol.int_field ~default:5 body "count" in
  let isa = Isa.Set.find_exn isa_name in
  let device = Device.Registry.build ~qubits:(max 4 qubits) device_name in
  let metric = study_metric app in
  let circuits = study_circuits ~app ~qubits ~count ~seed in
  let text, r = study_text ~device ~isa ~metric circuits in
  Ok
    (Njson.Obj
       [
         ("output", Njson.String text);
         ("isa", Njson.String r.Core.Study.isa_name);
         ("metric", Njson.String (Core.Study.metric_name metric));
         ("mean_value", Njson.Float r.Core.Study.mean_metric);
         ("mean_twoq", Njson.Float r.Core.Study.mean_twoq);
         ("mean_swaps", Njson.Float r.Core.Study.mean_swaps);
         ("mean_duration_ns", Njson.Float (1e9 *. r.Core.Study.mean_duration));
         ("mean_esp", Njson.Float r.Core.Study.mean_esp);
       ])

let run_devices () =
  Ok
    (Njson.Obj
       [
         ("output", Njson.String (devices_list_text ()));
         ( "devices",
           Njson.List
             (List.map
                (fun e ->
                  Njson.Obj
                    [
                      ("name", Njson.String e.Device.Registry.name);
                      ("qubits", Njson.Int e.Device.Registry.default_qubits);
                      ("description", Njson.String e.Device.Registry.description);
                    ])
                Device.Registry.entries) );
       ])

let execute (req : Protocol.request) =
  match req.Protocol.op with
  | Protocol.Ping -> Ok (Njson.Obj [ ("pong", Njson.Bool true) ])
  | Protocol.Compile -> run_compile req.Protocol.body
  | Protocol.Score -> run_score req.Protocol.body
  | Protocol.Devices -> run_devices ()
  | Protocol.Stats ->
    (* only the server knows its own queue/worker state *)
    Error
      (Protocol.err Protocol.Internal "stats must be answered by the server front end")
