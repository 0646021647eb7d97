(* Seeded property-based testing with shrinking and replay: the one
   property framework of the test suite, shared by every test
   executable.

   Case [i] of a run draws from [Rng.split (Rng.create seed) i], an
   indexed substream that does not depend on how many values earlier
   cases consumed — so a failure reported as [(seed, case)] replays
   exactly, even after unrelated generators change.  Failures are shrunk
   greedily: the first shrink candidate that still fails becomes the new
   counterexample until no candidate fails or the attempt budget runs
   out. *)

open Linalg

(* ---------- generators ---------- *)

module Gen = struct
  type 'a t = Rng.t -> 'a

  let return v _ = v
  let map f g rng = f (g rng)
  let map2 f a b rng =
    let x = a rng in
    let y = b rng in
    f x y

  let bind g f rng = f (g rng) rng

  let pair a b = map2 (fun x y -> (x, y)) a b

  let triple a b c rng =
    let x = a rng in
    let y = b rng in
    let z = c rng in
    (x, y, z)

  let bool rng = Rng.bool rng

  let int_range lo hi rng =
    if hi < lo then invalid_arg "Gen.int_range: empty range";
    lo + Rng.int rng (hi - lo + 1)

  let float_range lo hi rng = Rng.uniform rng lo hi
  let angle rng = Rng.uniform rng (-.Float.pi) Float.pi

  let choose gens rng =
    match gens with
    | [] -> invalid_arg "Gen.choose: empty list"
    | _ -> List.nth gens (Rng.int rng (List.length gens)) rng

  let choosel vs rng =
    match vs with
    | [] -> invalid_arg "Gen.choosel: empty list"
    | _ -> List.nth vs (Rng.int rng (List.length vs))

  let list_of ~len g rng =
    let n = len rng in
    List.init n (fun _ -> g rng)

  let array_of ~len g rng =
    let n = len rng in
    Array.init n (fun _ -> g rng)

  let unitary n rng = Qr.haar_unitary rng n
  let su2 rng = Qr.haar_special_unitary rng 2
  let su4 rng = Qr.haar_special_unitary rng 4

  let local_su4 rng =
    let a = Qr.haar_unitary rng 2 in
    let b = Qr.haar_unitary rng 2 in
    Mat.kron a b

  let fixed_types =
    lazy
      [
        Gates.Gate_type.s1;
        Gates.Gate_type.s2;
        Gates.Gate_type.s3;
        Gates.Gate_type.s4;
        Gates.Gate_type.s5;
        Gates.Gate_type.s6;
        Gates.Gate_type.s7;
        Gates.Gate_type.swap_type;
        Gates.Gate_type.cnot_type;
      ]

  let fixed_gate_type rng = choosel (Lazy.force fixed_types) rng

  let gate_type rng =
    choosel
      (Lazy.force fixed_types
      @ [
          Gates.Gate_type.Fsim_family;
          Gates.Gate_type.Xy_family;
          Gates.Gate_type.Cphase_family;
        ])
      rng

  (* QASM-exportable vocabulary (Table II gates plus the qelib1
     single-qubit set the importer accepts). *)
  let circuit ?(n_qubits = 4) ?(max_length = 12) () rng =
    if n_qubits < 2 then invalid_arg "Gen.circuit: need at least two qubits";
    let ang () = Rng.uniform rng (-3.0) 3.0 in
    let oneq () =
      match Rng.int rng 5 with
      | 0 -> Gates.Gate.h
      | 1 -> Gates.Gate.x
      | 2 -> Gates.Gate.rx (ang ())
      | 3 -> Gates.Gate.rz (ang ())
      | _ -> Gates.Gate.u3 (ang ()) (ang ()) (ang ())
    in
    (* zz / hop are deliberately absent: they export as their CX / xxyy
       expansions, not under their own names *)
    let twoq () =
      match Rng.int rng 8 with
      | 0 -> Gates.Gate.cz
      | 1 -> Gates.Gate.swap
      | 2 -> Gates.Gate.make "SYC" Gates.Twoq.syc
      | 3 -> Gates.Gate.make "iSWAP" Gates.Twoq.iswap
      | 4 -> Gates.Gate.make "sqrt_iSWAP" Gates.Twoq.sqrt_iswap
      | 5 -> Gates.Gate.fsim (ang ()) (ang ())
      | 6 -> Gates.Gate.xy (ang ())
      | _ -> Gates.Gate.cphase (ang ())
    in
    let len = Rng.int rng (max_length + 1) in
    let c = ref (Qcir.Circuit.empty n_qubits) in
    for _ = 1 to len do
      if Rng.bool rng then
        c := Qcir.Circuit.add_gate !c (oneq ()) [| Rng.int rng n_qubits |]
      else begin
        let a = Rng.int rng n_qubits in
        let b = (a + 1 + Rng.int rng (n_qubits - 1)) mod n_qubits in
        c := Qcir.Circuit.add_gate !c (twoq ()) [| a; b |]
      end
    done;
    !c
end

(* ---------- shrinkers ---------- *)

module Shrink = struct
  type 'a t = 'a -> 'a Seq.t

  let nothing _ = Seq.empty

  let int n =
    if n = 0 then Seq.empty
    else
      (* toward zero: 0, n/2, n - sign *)
      List.to_seq [ 0; n / 2; n - compare n 0 ]
      |> Seq.filter (fun c -> c <> n)

  let float v =
    if v = 0.0 || not (Float.is_finite v) then Seq.empty
    else List.to_seq [ 0.0; v /. 2.0 ] |> Seq.filter (fun c -> c <> v)

  let pair sa sb (a, b) =
    Seq.append
      (Seq.map (fun a' -> (a', b)) (sa a))
      (Seq.map (fun b' -> (a, b')) (sb b))

  let triple sa sb sc (a, b, c) =
    Seq.append
      (Seq.map (fun a' -> (a', b, c)) (sa a))
      (Seq.append
         (Seq.map (fun b' -> (a, b', c)) (sb b))
         (Seq.map (fun c' -> (a, b, c')) (sc c)))

  let list shrink_elt l =
    let n = List.length l in
    let drops = Seq.init n (fun i -> List.filteri (fun j _ -> j <> i) l) in
    let elt_shrinks =
      Seq.concat
        (Seq.init n (fun i ->
             Seq.map
               (fun e' -> List.mapi (fun j e -> if j = i then e' else e) l)
               (shrink_elt (List.nth l i))))
    in
    Seq.append drops elt_shrinks

  let circuit c =
    let instrs = Qcir.Circuit.instrs c in
    let n = List.length instrs in
    Seq.init n (fun i ->
        Qcir.Circuit.of_instrs (Qcir.Circuit.n_qubits c)
          (List.filteri (fun j _ -> j <> i) instrs))
end

(* ---------- runner ---------- *)

type 'a arbitrary = {
  gen : 'a Gen.t;
  shrink : 'a Shrink.t;
  print : 'a -> string;
}

let arbitrary ?(shrink = Shrink.nothing) ?(print = fun _ -> "<no printer>") gen =
  { gen; shrink; print }

exception Failed of string

let env_int name =
  match Sys.getenv_opt name with
  | None -> None
  | Some s -> int_of_string_opt (String.trim s)

let default_count = Option.value ~default:40 (env_int "NUOP_PROPTEST_COUNT")
let default_seed = Option.value ~default:0x6e756f70 (env_int "NUOP_PROPTEST_SEED")

(* The env vars beat per-property counts/seeds: that is the whole point
   of the override (crank every property up for a soak run, or replay a
   CI failure locally with the printed seed). *)
let effective_count explicit =
  match env_int "NUOP_PROPTEST_COUNT" with
  | Some n when n > 0 -> n
  | _ -> Option.value ~default:default_count explicit

let effective_seed explicit =
  match env_int "NUOP_PROPTEST_SEED" with
  | Some s -> s
  | None -> Option.value ~default:default_seed explicit

type 'a failure = { value : 'a; reason : string }

let run_case prop v =
  match prop v with
  | true -> None
  | false -> Some { value = v; reason = "property returned false" }
  | exception e ->
    Some { value = v; reason = Printf.sprintf "property raised %s" (Printexc.to_string e) }

let shrink_budget = 400

let shrink_to_minimal arb prop (f0 : 'a failure) =
  let attempts = ref 0 in
  let steps = ref 0 in
  let cur = ref f0 in
  let progressed = ref true in
  while !progressed && !attempts < shrink_budget do
    progressed := false;
    (try
       Seq.iter
         (fun cand ->
           if !attempts >= shrink_budget then raise Exit;
           incr attempts;
           match run_case prop cand with
           | Some f ->
             cur := f;
             incr steps;
             progressed := true;
             raise Exit
           | None -> ())
         (arb.shrink !cur.value)
     with Exit -> ())
  done;
  (!cur, !steps)

let check ?count ?seed ~name arb prop =
  let count = effective_count count in
  let seed = effective_seed seed in
  let root = Rng.create seed in
  let failure = ref None in
  let case = ref 0 in
  while Option.is_none !failure && !case < count do
    let rng = Rng.split root !case in
    (match run_case prop (arb.gen rng) with
    | Some f -> failure := Some (f, !case)
    | None -> ());
    incr case
  done;
  match !failure with
  | None -> ()
  | Some (f, case_index) ->
    let minimal, steps = shrink_to_minimal arb prop f in
    raise
      (Failed
         (Printf.sprintf
            "property %S falsified (seed=%d, case %d/%d, %d shrink step%s)\n\
             counterexample: %s\n\
             reason: %s\n\
             replay: NUOP_PROPTEST_SEED=%d dune runtest"
            name seed case_index count steps
            (if steps = 1 then "" else "s")
            (arb.print minimal.value) minimal.reason seed))

let test ?count ?seed name arb prop =
  Alcotest.test_case name `Quick (fun () -> check ?count ?seed ~name arb prop)

(* ---------- shared by several layers' properties ---------- *)

let circuit ?n_qubits ?max_length () =
  arbitrary ~shrink:Shrink.circuit ~print:Qcir.Circuit.to_string
    (Gen.circuit ?n_qubits ?max_length ())

(* a parameterized gate's name carries its angles printed to four
   places, which a round trip can re-round; the base name and the
   parameters are compared instead *)
let base_name name =
  match String.index_opt name '(' with Some k -> String.sub name 0 k | None -> name

let same_circuit a b =
  Qcir.Circuit.n_qubits a = Qcir.Circuit.n_qubits b
  && Qcir.Circuit.length a = Qcir.Circuit.length b
  && List.for_all2
       (fun ia ib ->
         let ga = Qcir.Instr.gate ia and gb = Qcir.Instr.gate ib in
         let pa = Gates.Gate.params ga and pb = Gates.Gate.params gb in
         base_name (Gates.Gate.name ga) = base_name (Gates.Gate.name gb)
         && Qcir.Instr.qubits ia = Qcir.Instr.qubits ib
         && Array.length pa = Array.length pb
         && Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) pa pb)
       (Qcir.Circuit.instrs a) (Qcir.Circuit.instrs b)

let same_compiled (a : Compiler.Pipeline.compiled) (b : Compiler.Pipeline.compiled) =
  let open Compiler.Pipeline in
  same_circuit a.circuit b.circuit
  && a.twoq_errors = b.twoq_errors
  && a.qubit_map = b.qubit_map
  && a.final_layout = b.final_layout
  && a.swap_count = b.swap_count
  && a.twoq_count = b.twoq_count
  && a.duration = b.duration
  && a.critical_depth = b.critical_depth

let fast_nuop =
  {
    Decompose.Nuop.default_options with
    starts = 3;
    max_layers = 3;
    bfgs = { Optimize.Bfgs.default_options with max_iter = 100 };
  }

let minor_words_per_call ~n f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let with_temp_file f =
  let file = Filename.temp_file "nuop-test" ".tmp" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () -> f file)
