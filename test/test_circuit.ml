(* Tests for the circuit IR and printer, plus the depth and QASM
   round-trip properties. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sample_circuit () =
  let c = Qcir.Circuit.empty 3 in
  let c = Qcir.Circuit.add_gate c Gates.Gate.h [| 0 |] in
  let c = Qcir.Circuit.add_gate c Gates.Gate.cz [| 0; 1 |] in
  let c = Qcir.Circuit.add_gate c Gates.Gate.h [| 2 |] in
  let c = Qcir.Circuit.add_gate c Gates.Gate.swap [| 1; 2 |] in
  c

(* ---------- Instr ---------- *)

let test_instr_validation () =
  Alcotest.check_raises "arity"
    (Invalid_argument "Instr.make: gate cz has arity 2 but got 1 qubits") (fun () ->
      ignore (Qcir.Instr.make Gates.Gate.cz [| 0 |]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Instr.make: duplicate qubit")
    (fun () -> ignore (Qcir.Instr.make Gates.Gate.cz [| 1; 1 |]));
  Alcotest.check_raises "negative" (Invalid_argument "Instr.make: negative qubit index")
    (fun () -> ignore (Qcir.Instr.make Gates.Gate.h [| -1 |]))

(* Checking one or two qubits allocates nothing beyond the instruction
   and its qubit copy (a per-instruction hash table once cost 37 words
   here). *)
let test_instr_allocation () =
  List.iter
    (fun (gate, qubits) ->
      let words =
        Proptest.minor_words_per_call ~n:1000 (fun () ->
            ignore (Sys.opaque_identity (Qcir.Instr.make gate qubits)))
      in
      check_bool (Printf.sprintf "%.1f words per make <= 16" words) true (words <= 16.0))
    [ (Gates.Gate.h, [| 3 |]); (Gates.Gate.cz, [| 2; 0 |]) ]

let test_instr_accessors () =
  let i = Qcir.Instr.make Gates.Gate.cz [| 2; 0 |] in
  check_int "arity" 2 (Qcir.Instr.arity i);
  check_bool "two qubit" true (Qcir.Instr.is_two_qubit i);
  check_bool "uses 2" true (Qcir.Instr.uses_qubit i 2);
  check_bool "uses 1" false (Qcir.Instr.uses_qubit i 1);
  Alcotest.(check (array int)) "qubits" [| 2; 0 |] (Qcir.Instr.qubits i)

let test_instr_map_qubits () =
  let i = Qcir.Instr.make Gates.Gate.cz [| 0; 1 |] in
  let j = Qcir.Instr.map_qubits (fun q -> q + 3) i in
  Alcotest.(check (array int)) "mapped" [| 3; 4 |] (Qcir.Instr.qubits j)

let test_instr_qubits_copy () =
  let i = Qcir.Instr.make Gates.Gate.cz [| 0; 1 |] in
  let qs = Qcir.Instr.qubits i in
  qs.(0) <- 99;
  Alcotest.(check (array int)) "immutable" [| 0; 1 |] (Qcir.Instr.qubits i)

(* ---------- Circuit ---------- *)

let test_circuit_counts () =
  let c = sample_circuit () in
  check_int "length" 4 (Qcir.Circuit.length c);
  check_int "2q" 2 (Qcir.Circuit.two_qubit_count c);
  check_int "1q" 2 (Qcir.Circuit.one_qubit_count c);
  check_int "cz count" 1 (Qcir.Circuit.count_gate_name c "cz");
  check_int "h count" 2 (Qcir.Circuit.count_gate_name c "h")

let test_circuit_range_check () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Circuit.add: qubit 3 out of range (n=3)") (fun () ->
      ignore (Qcir.Circuit.add_gate (Qcir.Circuit.empty 3) Gates.Gate.h [| 3 |]))

let test_circuit_depth () =
  let c = sample_circuit () in
  (* h0 | cz01 | swap12 with h2 in parallel with h0/cz *)
  check_int "depth" 3 (Qcir.Circuit.depth c);
  check_int "2q depth" 2 (Qcir.Circuit.two_qubit_depth c)

let test_circuit_append () =
  let c = sample_circuit () in
  let d = Qcir.Circuit.append c c in
  check_int "length" 8 (Qcir.Circuit.length d);
  Alcotest.check_raises "mismatch" (Invalid_argument "Circuit.append: qubit count mismatch")
    (fun () -> ignore (Qcir.Circuit.append c (Qcir.Circuit.empty 2)))

let test_circuit_order_preserved () =
  let c = sample_circuit () in
  let names = List.map (fun i -> Gates.Gate.name (Qcir.Instr.gate i)) (Qcir.Circuit.instrs c) in
  Alcotest.(check (list string)) "order" [ "h"; "cz"; "h"; "swap" ] names

let test_circuit_map_instrs () =
  let c = sample_circuit () in
  (* duplicate each two-qubit gate *)
  let d =
    Qcir.Circuit.map_instrs
      (fun i -> if Qcir.Instr.is_two_qubit i then [ i; i ] else [ i ])
      c
  in
  check_int "length" 6 (Qcir.Circuit.length d)

let test_circuit_census () =
  let census = Qcir.Circuit.gate_name_census (sample_circuit ()) in
  Alcotest.(check (list (pair string int)))
    "census"
    [ ("cz", 1); ("h", 2); ("swap", 1) ]
    census

(* ---------- Printer ---------- *)

let test_printer_moments () =
  let ms = Qcir.Printer.moments (sample_circuit ()) in
  check_int "3 moments" 3 (List.length ms);
  (* first moment holds h(0) and h(2), which commute spatially *)
  check_int "parallel first" 2 (List.length (List.hd ms))

let test_printer_renders_all_qubits () =
  let s = Qcir.Printer.render (sample_circuit ()) in
  check_bool "q0" true (String.length s > 0);
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  check_int "3 lines" 3 (List.length lines)

(* ---------- properties ---------- *)

let depth_bounds =
  Proptest.test ~count:30 "depth bounds" (Proptest.circuit ~max_length:16 ()) (fun c ->
      let d = Qcir.Circuit.depth c in
      d <= Qcir.Circuit.length c
      && Qcir.Circuit.two_qubit_depth c <= d
      && (Qcir.Circuit.length c = 0 || d >= 1))

(* QASM text of a random circuit, put through 1-3 random mutations:
   truncation, deletion, insertion, or replacement *)
let garbled_qasm rng =
  let open Linalg in
  let text = ref (Qcir.Qasm.to_string (Proptest.Gen.circuit () rng)) in
  let mutations = 1 + Rng.int rng 3 in
  for _ = 1 to mutations do
    let t = !text in
    let n = String.length t in
    if n > 0 then
      text :=
        (match Rng.int rng 4 with
        | 0 -> String.sub t 0 (Rng.int rng n)
        | 1 ->
          let i = Rng.int rng n in
          String.sub t 0 i ^ String.sub t (i + 1) (n - i - 1)
        | 2 ->
          let i = Rng.int rng (n + 1) in
          let c = Char.chr (32 + Rng.int rng 95) in
          String.sub t 0 i ^ String.make 1 c ^ String.sub t i (n - i)
        | _ ->
          let i = Rng.int rng n in
          let c = Char.chr (32 + Rng.int rng 95) in
          String.sub t 0 i ^ String.make 1 c ^ String.sub t (i + 1) (n - i - 1))
  done;
  !text

let roundtrip_properties =
  [
    Proptest.test "qasm round-trips circuits" ~count:30 (Proptest.circuit ())
      (fun c -> Proptest.same_circuit c (Qcir.Qasm.of_string (Qcir.Qasm.to_string c)));
    Proptest.test "garbled qasm never crashes generically" ~count:60
      (Proptest.arbitrary ~print:(Printf.sprintf "%S") garbled_qasm)
      (fun text ->
        match Qcir.Qasm.of_string_result text with
        | Ok _ -> true
        | Error e -> e.Qcir.Qasm.line >= 1 && e.Qcir.Qasm.column >= 1);
  ]

let () =
  Alcotest.run "circuit"
    [
      ( "instr",
        [
          Alcotest.test_case "validation" `Quick test_instr_validation;
          Alcotest.test_case "allocation" `Quick test_instr_allocation;
          Alcotest.test_case "accessors" `Quick test_instr_accessors;
          Alcotest.test_case "map_qubits" `Quick test_instr_map_qubits;
          Alcotest.test_case "qubits copy" `Quick test_instr_qubits_copy;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "counts" `Quick test_circuit_counts;
          Alcotest.test_case "range check" `Quick test_circuit_range_check;
          Alcotest.test_case "depth" `Quick test_circuit_depth;
          Alcotest.test_case "append" `Quick test_circuit_append;
          Alcotest.test_case "order" `Quick test_circuit_order_preserved;
          Alcotest.test_case "map_instrs" `Quick test_circuit_map_instrs;
          Alcotest.test_case "census" `Quick test_circuit_census;
        ] );
      ( "printer",
        [
          Alcotest.test_case "moments" `Quick test_printer_moments;
          Alcotest.test_case "render" `Quick test_printer_renders_all_qubits;
        ] );
      ("properties", [ depth_bounds ]);
      ("roundtrip", roundtrip_properties);
    ]
