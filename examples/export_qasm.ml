(* Compile a benchmark for an instruction set and export the executable
   as OpenQASM 2.0 — the interchange path for running NuOp output on
   other toolchains.

     dune exec examples/export_qasm.exe [output.qasm] *)

open Linalg

let () =
  let rng = Rng.create 5 in
  let circuit = Apps.Qaoa.circuit rng 4 in
  let device = Device.sycamore_line 5 in
  let isa = Isa.Set.g2 in
  let compiled, metrics =
    Compiler.Pipeline.compile_with_metrics
      ~options:{ Compiler.Pipeline.default_options with optimize = true }
      ~device ~isa circuit
  in
  Printf.printf
    "Compiled a 4-qubit QAOA circuit for %s on the Sycamore model:\n\
    \  %d instructions, %d two-qubit gates, %d routing SWAPs\n\n"
    (Isa.Set.name isa)
    (Qcir.Circuit.length compiled.Compiler.Pipeline.circuit)
    compiled.Compiler.Pipeline.twoq_count compiled.Compiler.Pipeline.swap_count;
  (* the per-pass table `nuop compile --trace-passes` prints *)
  let table = Compiler.Pipeline.header :: Compiler.Pipeline.rows metrics in
  let width i = List.fold_left (fun w row -> max w (String.length (List.nth row i))) 0 table in
  print_endline "pass trace:";
  List.iter
    (fun row ->
      print_endline
        (String.concat "  " (List.mapi (fun i cell -> Printf.sprintf "%-*s" (width i) cell) row)))
    table;
  print_newline ();
  let qasm = Qcir.Qasm.to_string compiled.Compiler.Pipeline.circuit in
  (match Sys.argv with
  | [| _; path |] ->
    Qcir.Qasm.to_file path compiled.Compiler.Pipeline.circuit;
    Printf.printf "wrote %s\n" path
  | _ ->
    print_string qasm);
  (* round-trip sanity: parse it back and check the semantics survived *)
  let parsed = Qcir.Qasm.of_string qasm in
  let a = Sim.State.run_circuit compiled.Compiler.Pipeline.circuit in
  let b = Sim.State.run_circuit parsed in
  Printf.printf "\nround-trip state fidelity: %.10f\n" (Sim.State.fidelity_pure a b)
