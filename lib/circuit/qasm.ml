(* OpenQASM 2.0 export / import for the supported gate vocabulary.

   Export maps this library's gates onto a QASM prelude that defines the
   non-standard two-qubit gates (fsim, xy, syc, iswap, ...) in terms of
   qelib1 primitives via their exact KAK-style identities, so emitted
   files load in any QASM 2.0 toolchain.  Import accepts the same subset
   (plus the common qelib1 single-qubit gates) and rebuilds a circuit.

   Only the gates the compiler can emit are covered; [Unsupported_gate]
   reports anything else. *)

exception Unsupported_gate of string

type error = { line : int; column : int; message : string }

exception Parse_error of error

let error_to_string e = Printf.sprintf "line %d, column %d: %s" e.line e.column e.message

let () =
  Printexc.register_printer (function
    | Parse_error e -> Some (Printf.sprintf "Qasm.Parse_error (%s)" (error_to_string e))
    | _ -> None)

(* Leaf parsers raise [Syntax]; the statement loop catches it (along
   with any escaping library exception) and rethrows a located
   [Parse_error].  Import never leaks a generic exception. *)
exception Syntax of string

let syntax fmt = Printf.ksprintf (fun m -> raise (Syntax m)) fmt

(* Gate definitions for the prelude.  The iSWAP-like interaction
   xxyy(t) = exp(-i t (XX+YY)/2) factors exactly (XX and YY commute):
     xxyy(t) = rxx(t) . ryy(t)
     rxx(t)  = (H (x) H)       rzz(t) (H (x) H)
     ryy(t)  = (RX(pi/2) (x) RX(pi/2)) rzz(t) (RX(-pi/2) (x) RX(-pi/2))
     rzz(t)  = cx; rz(t); cx
   The test-suite verifies this expansion against the matrix definition
   gate-by-gate. *)
let prelude =
  {|OPENQASM 2.0;
include "qelib1.inc";
gate rzz_(t) a, b { cx a, b; rz(t) b; cx a, b; }
// exp(-i t (XX+YY)/2) — the iSWAP-like interaction
gate xxyy(t) a, b {
  h a; h b; rzz_(t) a, b; h a; h b;
  rx(pi/2) a; rx(pi/2) b; rzz_(t) a, b; rx(-pi/2) a; rx(-pi/2) b;
}
// Google fSim(theta, phi) = xxyy(theta) then controlled-phase(-phi)
gate fsim(theta, phi) a, b { xxyy(theta) a, b; cu1(-phi) a, b; }
// Rigetti XY(theta) = xxyy(-theta/2)
gate xy(theta) a, b { xxyy(-theta/2) a, b; }
gate iswap_n a, b { xxyy(pi/2) a, b; }
gate syc a, b { fsim(pi/2, pi/6) a, b; }
gate sqrt_iswap a, b { xxyy(pi/4) a, b; }
|}

let float_to_qasm v = Printf.sprintf "%.12g" v

(* The angles of a parameterless two-qubit gate that is exactly an fSim
   point, read off its matrix: fixed types such as fsim(pi/3,0) carry no
   params, and XY(pi) is fSim(-pi/2, 0).  theta comes from the (1,1) and
   (1,2) entries and phi from (3,3); [None] unless fSim(theta, phi)
   reproduces the matrix within 1e-12. *)
let fsim_angles m =
  let get = Linalg.Mat.get m in
  let theta = Float.atan2 (-.(get 1 2).Complex.im) (get 1 1).Complex.re in
  (* [0.0 -.] rather than negation, so that phi = 0 prints as 0, not -0 *)
  let phi = 0.0 -. Complex.arg (get 3 3) in
  if Linalg.Mat.equal ~eps:1e-12 (Gates.Twoq.fsim theta phi) m then Some (theta, phi)
  else None

(* Map a gate to a QASM statement: fixed gates by name, parameterized
   ones by their name's head and full-precision params, and any other
   fSim point by its matrix. *)
let gate_to_qasm gate qubits =
  let name = Gates.Gate.name gate in
  let q = Array.map (Printf.sprintf "q[%d]") qubits in
  let two op = Printf.sprintf "%s %s, %s;" op q.(0) q.(1) in
  let fsim theta phi =
    Printf.sprintf "fsim(%s,%s) %s, %s;" (float_to_qasm theta) (float_to_qasm phi) q.(0) q.(1)
  in
  match name with
  | "h" -> Printf.sprintf "h %s;" q.(0)
  | "x" -> Printf.sprintf "x %s;" q.(0)
  | "cz" | "CZ" -> two "cz"
  | "CNOT" -> two "cx"
  | "swap" | "SWAP" -> two "swap"
  | "SYC" -> two "syc"
  | "iSWAP" -> two "iswap_n"
  | "sqrt_iSWAP" -> two "sqrt_iswap"
  | _ -> (
    let head = match String.index_opt name '(' with Some k -> String.sub name 0 k | None -> name in
    match (head, Array.to_list (Gates.Gate.params gate)) with
    | "u3", [ a; b; l ] ->
      Printf.sprintf "u3(%s,%s,%s) %s;" (float_to_qasm a) (float_to_qasm b) (float_to_qasm l)
        q.(0)
    | "rx", [ t ] -> Printf.sprintf "rx(%s) %s;" (float_to_qasm t) q.(0)
    | "rz", [ t ] -> Printf.sprintf "rz(%s) %s;" (float_to_qasm t) q.(0)
    | "fsim", [ theta; phi ] -> fsim theta phi
    | "xy", [ theta ] -> Printf.sprintf "xy(%s) %s, %s;" (float_to_qasm theta) q.(0) q.(1)
    (* our cphase(phi) = diag(1,1,1,e^{-i phi}) = qasm cu1(-phi) *)
    | "cphase", [ phi ] -> Printf.sprintf "cu1(%s) %s, %s;" (float_to_qasm (-.phi)) q.(0) q.(1)
    (* exp(-i b ZZ) = rzz(2b) up to global phase; qelib1 has no rzz, use
       the cx-rz-cx identity *)
    | "zz", [ b ] ->
      Printf.sprintf "cx %s, %s; rz(%s) %s; cx %s, %s;" q.(0) q.(1)
        (float_to_qasm (2.0 *. b))
        q.(1) q.(0) q.(1)
    | "hop", [ t ] -> Printf.sprintf "xxyy(%s) %s, %s;" (float_to_qasm t) q.(0) q.(1)
    | _, [] when Gates.Gate.arity gate = 2 -> (
      match fsim_angles (Gates.Gate.matrix gate) with
      | Some (theta, phi) -> fsim theta phi
      | None -> raise (Unsupported_gate name))
    | _ -> raise (Unsupported_gate name))

let to_string circuit =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf prelude;
  Buffer.add_string buf (Printf.sprintf "qreg q[%d];\ncreg c[%d];\n" (Circuit.n_qubits circuit) (Circuit.n_qubits circuit));
  Circuit.iter
    (fun instr ->
      Buffer.add_string buf (gate_to_qasm (Instr.gate instr) (Instr.qubits instr));
      Buffer.add_char buf '\n')
    circuit;
  Buffer.contents buf

let to_file path circuit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string circuit))

(* ---------- import ---------- *)

let strip s = String.trim s

(* Evaluate simple QASM angle expressions: floats, pi, -pi/2, 3*pi/4 ... *)
let eval_angle expr =
  let expr = strip expr in
  let parse_atom a =
    let a = strip a in
    if a = "pi" then Float.pi
    else if a = "-pi" then -.Float.pi
    else
      match float_of_string_opt a with
      | Some v -> v
      | None -> syntax "bad angle %S" a
  in
  match String.index_opt expr '/' with
  | Some k ->
    let num = String.sub expr 0 k in
    let den = String.sub expr (k + 1) (String.length expr - k - 1) in
    let num_v =
      match String.index_opt num '*' with
      | Some m ->
        parse_atom (String.sub num 0 m)
        *. parse_atom (String.sub num (m + 1) (String.length num - m - 1))
      | None -> parse_atom num
    in
    num_v /. parse_atom den
  | None -> begin
    match String.index_opt expr '*' with
    | Some m ->
      parse_atom (String.sub expr 0 m)
      *. parse_atom (String.sub expr (m + 1) (String.length expr - m - 1))
    | None -> parse_atom expr
  end

let parse_qubit token =
  let token = strip token in
  try Scanf.sscanf token "q[%d]%!" Fun.id
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> syntax "bad qubit %S" token

(* Parse one statement like "fsim(0.1,0.2) q[0], q[1]". *)
let parse_statement line =
  let line = strip line in
  let head, args =
    match String.index_opt line ' ' with
    | None -> syntax "bad statement %S" line
    | Some k ->
      (strip (String.sub line 0 k), strip (String.sub line (k + 1) (String.length line - k - 1)))
  in
  let name, params =
    match String.index_opt head '(' with
    | None -> (head, [])
    | Some k ->
      let close =
        match String.rindex_opt head ')' with
        | Some c when c > k -> c
        | _ -> syntax "unclosed parens %S" head
      in
      let inner = String.sub head (k + 1) (close - k - 1) in
      (String.sub head 0 k, List.map eval_angle (String.split_on_char ',' inner))
  in
  let qubits = Array.of_list (List.map parse_qubit (String.split_on_char ',' args)) in
  (name, params, qubits)

let gate_of name params =
  match (name, params) with
  | "h", [] -> Gates.Gate.h
  | "x", [] -> Gates.Gate.x
  | "rx", [ t ] -> Gates.Gate.rx t
  | "rz", [ t ] -> Gates.Gate.rz t
  | "u3", [ a; b; l ] -> Gates.Gate.u3 a b l
  | "cz", [] -> Gates.Gate.cz
  | "cx", [] -> Gates.Gate.make "CNOT" Gates.Twoq.cnot
  | "swap", [] -> Gates.Gate.swap
  | "syc", [] -> Gates.Gate.make "SYC" Gates.Twoq.syc
  | "iswap_n", [] -> Gates.Gate.make "iSWAP" Gates.Twoq.iswap
  | "sqrt_iswap", [] -> Gates.Gate.make "sqrt_iSWAP" Gates.Twoq.sqrt_iswap
  | "fsim", [ theta; phi ] -> Gates.Gate.fsim theta phi
  | "xy", [ theta ] -> Gates.Gate.xy theta
  | "xxyy", [ t ] -> Gates.Gate.hopping t
  | "cu1", [ phi ] -> Gates.Gate.cphase (-.phi)
  | n, ps -> syntax "unsupported gate %s with %d parameter(s)" n (List.length ps)

(* Run [f], converting [Syntax] and any library exception that a leaf
   parser or the circuit builder can raise into a located [Parse_error].
   This is the boundary that keeps garbled input from escaping as a
   generic exception. *)
let located ~line ~column f =
  try f () with
  | Syntax message | Invalid_argument message | Failure message ->
    raise (Parse_error { line; column; message })
  | Scanf.Scan_failure m -> raise (Parse_error { line; column; message = "scan failure: " ^ m })
  | End_of_file -> raise (Parse_error { line; column; message = "unexpected end of input" })

(* 1-based column of the first non-blank character of [s] at [offset]
   (itself 0-based) within its line. *)
let column_at ~offset s =
  let k = ref 0 in
  let n = String.length s in
  while !k < n && (s.[!k] = ' ' || s.[!k] = '\t') do incr k done;
  offset + !k + 1

let of_string text =
  (* drop the prelude: everything through the gate definitions; we only
     interpret statements after the qreg declaration *)
  let lines = String.split_on_char '\n' text in
  let in_gate_def = ref false in
  let circuit = ref None in
  let last_line = ref 0 in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      last_line := lineno;
      let code =
        match String.index_opt raw '/' with
        | Some k when k + 1 < String.length raw && raw.[k + 1] = '/' ->
          String.sub raw 0 k
        | _ -> raw
      in
      (* column of the first statement on this line, inside the raw text *)
      let base = column_at ~offset:0 code - 1 in
      let line = strip code in
      if line = "" || line = "OPENQASM 2.0;" then ()
      else if String.length line >= 7 && String.sub line 0 7 = "include" then ()
      else if String.length line >= 5 && String.sub line 0 5 = "gate " then
        (* gate definitions may be single-line (prelude style) or open a block *)
        in_gate_def := not (String.contains line '}')
      else if !in_gate_def then begin
        if String.contains line '}' then in_gate_def := false
      end
      else if String.length line >= 5 && String.sub line 0 5 = "qreg " then
        located ~line:lineno ~column:(base + 1) (fun () ->
            let decl = strip (String.sub line 5 (String.length line - 5)) in
            let n =
              try Scanf.sscanf decl "q[%d];%!" Fun.id
              with Scanf.Scan_failure _ | Failure _ | End_of_file ->
                syntax "bad qreg declaration %S" decl
            in
            if n <= 0 then syntax "qreg needs at least one qubit, got %d" n;
            if !circuit <> None then syntax "duplicate qreg declaration";
            circuit := Some (Circuit.empty n))
      else if String.length line >= 5 && String.sub line 0 5 = "creg " then ()
      else begin
        (* possibly multiple statements per line; track each statement's
           offset so errors point at the right column *)
        let offset = ref base in
        List.iter
          (fun seg ->
            let column = column_at ~offset:!offset seg in
            offset := !offset + String.length seg + 1;
            let stmt = strip seg in
            if stmt <> "" then
              located ~line:lineno ~column (fun () ->
                  let name, params, qubits = parse_statement stmt in
                  let instr = Instr.make (gate_of name params) qubits in
                  match !circuit with
                  | None -> syntax "statement before qreg declaration"
                  | Some c -> circuit := Some (Circuit.add c instr)))
          (String.split_on_char ';' line)
      end)
    lines;
  match !circuit with
  | Some c -> c
  | None ->
    raise (Parse_error { line = !last_line; column = 1; message = "missing qreg declaration" })

let of_string_result text =
  match of_string text with
  | c -> Ok c
  | exception Parse_error e -> Error e

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string (really_input_string ic len))
