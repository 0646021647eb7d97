(* NuOp template circuits (Fig 4 of the paper).

   A template with [i] layers is
       L_i . G_i . L_{i-1} . G_{i-1} ... G_1 . L_0
   where each L_k = U3(a,b,l) (x) U3(a',b',l') is a pair of arbitrary
   single-qubit rotations (6 angles) and each G_k is the target hardware
   two-qubit gate.  For a fixed gate type the G_k are constant; for a
   continuous family each G_k carries its own free angles, appended after
   the single-qubit angles in the parameter vector.

   Parameter layout: [ 6*(i+1) single-qubit angles | i * pc gate angles ]
   with pc = Gate_type.param_count.

   Evaluation is allocation-free: every matrix lives in the workspace
   and is reused across objective evaluations (BFGS calls this tens of
   thousands of times per decomposition), each local layer's kron is
   stored entry by entry, and the products take Mat's unrolled 4x4
   kernels.  [fidelity] boxes only the trace and its result.

   The workspace keeps every layer of the last evaluated point: L_k,
   G_k, G_k acc_{k-1} and the prefix product acc_k = L_k G_k acc_{k-1}.
   A finite-difference probe changes one parameter, so [gradient]
   restarts each probe from the stored product below that parameter's
   layer, rewrites only that layer and multiplies the stored layers
   above it back on: the float operations of a full [evaluate] at the
   probe point, in the same order, without the ones whose result is
   already stored. *)

open Linalg

type t = {
  gate_type : Gates.Gate_type.t;
  layers : int;
  gate_params : int;  (* free angles per two-qubit layer *)
  fsim_gates : bool;  (* every G_k is zero outside the fSim pattern *)
  locals : Mat.t array;  (* L_0 .. L_i; L_0 is also acc_0 *)
  gates : Mat.t array;  (* G_1 .. G_i: the fixed matrix, or each family instance *)
  below : Mat.t array;  (* G_k acc_{k-1}, k = 1 .. i *)
  accs : Mat.t array;  (* acc_0 .. acc_i *)
  probe_local : Mat.t;
  probe_gate : Mat.t;
  probe_below : Mat.t;
  probe_acc : Mat.t * Mat.t;  (* alternate destinations of the climb *)
  probe_x : float array;
}

let dim gate_type ~layers =
  (6 * (layers + 1)) + (layers * Gates.Gate_type.param_count gate_type)

let create gate_type ~layers =
  if layers < 0 then invalid_arg "Template.create: negative layer count";
  let mats n = Array.init n (fun _ -> Mat.create 4 4) in
  let gates, fsim_gates =
    match gate_type with
    | Gates.Gate_type.Fixed { unitary; _ } ->
      (Array.make layers unitary, Mat.has_fsim_pattern unitary)
    | Gates.Gate_type.Fsim_family | Gates.Gate_type.Xy_family
    | Gates.Gate_type.Cphase_family ->
      (mats layers, true)
  in
  let locals = mats (layers + 1) in
  let accs = Array.append [| locals.(0) |] (mats layers) in
  {
    gate_type;
    layers;
    gate_params = Gates.Gate_type.param_count gate_type;
    fsim_gates;
    locals;
    gates;
    below = mats layers;
    accs;
    probe_local = Mat.create 4 4;
    probe_gate = Mat.create 4 4;
    probe_below = Mat.create 4 4;
    probe_acc = (Mat.create 4 4, Mat.create 4 4);
    probe_x = Array.make (dim gate_type ~layers) 0.0;
  }

let gate_type t = t.gate_type
let layers t = t.layers

let param_count t = dim t.gate_type ~layers:t.layers

(* Write U3(a,b,l) (x) U3(a',b',l') into [dst] (4x4) without allocating,
   reading the six angles from [params] at [base].  U3 convention matches
   Oneq.u3.  Entry (2*iu+iv, 2*ju+jv) of the kron is u[iu,ju] * v[iv,jv],
   stored directly as (ur vr - ui vi, ur vi + ui vr). *)
let write_local_layer dst params base =
  let a = params.(base) and b = params.(base + 1) and l = params.(base + 2) in
  let a' = params.(base + 3) and b' = params.(base + 4) and l' = params.(base + 5) in
  let d = Mat.unsafe_data dst in
  (* first qubit U3 entries *)
  let ca = Float.cos (a /. 2.0) and sa = Float.sin (a /. 2.0) in
  let u00r = ca and u00i = 0.0 in
  let u01r = -.sa *. Float.cos l and u01i = -.sa *. Float.sin l in
  let u10r = sa *. Float.cos b and u10i = sa *. Float.sin b in
  let u11r = ca *. Float.cos (b +. l) and u11i = ca *. Float.sin (b +. l) in
  (* second qubit U3 entries *)
  let ca' = Float.cos (a' /. 2.0) and sa' = Float.sin (a' /. 2.0) in
  let v00r = ca' and v00i = 0.0 in
  let v01r = -.sa' *. Float.cos l' and v01i = -.sa' *. Float.sin l' in
  let v10r = sa' *. Float.cos b' and v10i = sa' *. Float.sin b' in
  let v11r = ca' *. Float.cos (b' +. l') and v11i = ca' *. Float.sin (b' +. l') in
  (* row 0: (iu, iv) = (0, 0) *)
  d.(0) <- (u00r *. v00r) -. (u00i *. v00i);
  d.(1) <- (u00r *. v00i) +. (u00i *. v00r);
  d.(2) <- (u00r *. v01r) -. (u00i *. v01i);
  d.(3) <- (u00r *. v01i) +. (u00i *. v01r);
  d.(4) <- (u01r *. v00r) -. (u01i *. v00i);
  d.(5) <- (u01r *. v00i) +. (u01i *. v00r);
  d.(6) <- (u01r *. v01r) -. (u01i *. v01i);
  d.(7) <- (u01r *. v01i) +. (u01i *. v01r);
  (* row 1: (iu, iv) = (0, 1) *)
  d.(8) <- (u00r *. v10r) -. (u00i *. v10i);
  d.(9) <- (u00r *. v10i) +. (u00i *. v10r);
  d.(10) <- (u00r *. v11r) -. (u00i *. v11i);
  d.(11) <- (u00r *. v11i) +. (u00i *. v11r);
  d.(12) <- (u01r *. v10r) -. (u01i *. v10i);
  d.(13) <- (u01r *. v10i) +. (u01i *. v10r);
  d.(14) <- (u01r *. v11r) -. (u01i *. v11i);
  d.(15) <- (u01r *. v11i) +. (u01i *. v11r);
  (* row 2: (iu, iv) = (1, 0) *)
  d.(16) <- (u10r *. v00r) -. (u10i *. v00i);
  d.(17) <- (u10r *. v00i) +. (u10i *. v00r);
  d.(18) <- (u10r *. v01r) -. (u10i *. v01i);
  d.(19) <- (u10r *. v01i) +. (u10i *. v01r);
  d.(20) <- (u11r *. v00r) -. (u11i *. v00i);
  d.(21) <- (u11r *. v00i) +. (u11i *. v00r);
  d.(22) <- (u11r *. v01r) -. (u11i *. v01i);
  d.(23) <- (u11r *. v01i) +. (u11i *. v01r);
  (* row 3: (iu, iv) = (1, 1) *)
  d.(24) <- (u10r *. v10r) -. (u10i *. v10i);
  d.(25) <- (u10r *. v10i) +. (u10i *. v10r);
  d.(26) <- (u10r *. v11r) -. (u10i *. v11i);
  d.(27) <- (u10r *. v11i) +. (u10i *. v11r);
  d.(28) <- (u11r *. v10r) -. (u11i *. v10i);
  d.(29) <- (u11r *. v10i) +. (u11i *. v10r);
  d.(30) <- (u11r *. v11r) -. (u11i *. v11i);
  d.(31) <- (u11r *. v11i) +. (u11i *. v11r)

(* Write the family gate instance for layer [k] into [dst]. *)
let write_gate t dst params k =
  match t.gate_type with
  | Gates.Gate_type.Fixed _ -> assert false
  | Gates.Gate_type.Cphase_family ->
    let phi = params.((6 * (t.layers + 1)) + k) in
    let d = Mat.unsafe_data dst in
    Array.fill d 0 32 0.0;
    d.(0) <- 1.0;
    d.(2 * 5) <- 1.0;
    d.(2 * 10) <- 1.0;
    d.(2 * 15) <- Float.cos phi;
    d.((2 * 15) + 1) <- -.Float.sin phi
  | Gates.Gate_type.Xy_family ->
    let theta = params.((6 * (t.layers + 1)) + k) in
    let d = Mat.unsafe_data dst in
    Array.fill d 0 32 0.0;
    let ct = Float.cos (theta /. 2.0) and st = Float.sin (theta /. 2.0) in
    d.(0) <- 1.0;
    (* (1,1) *)
    d.(2 * 5) <- ct;
    (* (1,2) = i sin *)
    d.((2 * 6) + 1) <- st;
    (* (2,1) *)
    d.((2 * 9) + 1) <- st;
    d.(2 * 10) <- ct;
    d.(2 * 15) <- 1.0
  | Gates.Gate_type.Fsim_family ->
    let base = (6 * (t.layers + 1)) + (2 * k) in
    let theta = params.(base) and phi = params.(base + 1) in
    let d = Mat.unsafe_data dst in
    Array.fill d 0 32 0.0;
    let ct = Float.cos theta and st = Float.sin theta in
    d.(0) <- 1.0;
    d.(2 * 5) <- ct;
    d.((2 * 6) + 1) <- -.st;
    d.((2 * 9) + 1) <- -.st;
    d.(2 * 10) <- ct;
    d.(2 * 15) <- Float.cos phi;
    d.((2 * 15) + 1) <- -.Float.sin phi

(* G acc into [dst]: the fSim-pattern kernel when every gate of the
   template has that shape, chosen once by [create]. *)
let mul_gate t ~dst g acc =
  if t.fsim_gates then Mat.mul_fsim_into ~dst g acc else Mat.mul_into ~dst g acc

(* Evaluate the template unitary, keeping every layer in the workspace.
   The returned matrix is acc_i: valid only until the next [evaluate]
   or [gradient] call. *)
let evaluate t params =
  assert (Array.length params = param_count t);
  write_local_layer t.locals.(0) params 0;
  for k = 1 to t.layers do
    if t.gate_params > 0 then write_gate t t.gates.(k - 1) params (k - 1);
    mul_gate t ~dst:t.below.(k - 1) t.gates.(k - 1) t.accs.(k - 1);
    write_local_layer t.locals.(k) params (6 * k);
    Mat.mul_into ~dst:t.accs.(k) t.locals.(k) t.below.(k - 1)
  done;
  t.accs.(t.layers)

(* Decomposition fidelity F_d = |Tr(U_d^dag U_t)| / 4 (Eq 1; the modulus
   quotients out the global phase). *)
let fidelity_of u_d ~target = Complex.norm (Mat.hs_inner u_d target) /. 4.0

let fidelity t params ~target = fidelity_of (evaluate t params) ~target

let infidelity t params ~target = 1.0 -. fidelity t params ~target

(* Multiply the stored layers k .. i onto [acc] (a probe's acc_{k-1}),
   alternating between the two climb buffers. *)
let rec climb t acc k =
  if k > t.layers then acc
  else begin
    let a, b = t.probe_acc in
    let dst = if acc == a then b else a in
    mul_gate t ~dst:t.probe_below t.gates.(k - 1) acc;
    Mat.mul_into ~dst t.locals.(k) t.probe_below;
    climb t dst (k + 1)
  end

(* acc_i at [x], a point that differs from the last evaluated one only
   in parameter [i]: a local angle of layer j restarts from the stored
   G_j acc_{j-1} (L_0's from nothing), a gate angle of layer k from the
   stored acc_{k-1}. *)
let probe t x i =
  let locals = 6 * (t.layers + 1) in
  if i < locals then begin
    let j = i / 6 in
    write_local_layer t.probe_local x (6 * j);
    if j = 0 then climb t t.probe_local 1
    else begin
      let a, _ = t.probe_acc in
      Mat.mul_into ~dst:a t.probe_local t.below.(j - 1);
      climb t a (j + 1)
    end
  end
  else begin
    let k = ((i - locals) / t.gate_params) + 1 in
    let a, _ = t.probe_acc in
    write_gate t t.probe_gate x (k - 1);
    mul_gate t ~dst:t.probe_below t.probe_gate t.accs.(k - 1);
    Mat.mul_into ~dst:a t.locals.(k) t.probe_below;
    climb t a (k + 1)
  end

(* Grad.central's loop, with each probe's infidelity taken from [probe]
   after one [evaluate] at [x] has stored the layers. *)
let gradient t ~h x ~target ~g =
  let n = param_count t in
  assert (Array.length x = n && Array.length g = n);
  assert (x != t.probe_x && g != t.probe_x && g != x);
  ignore (evaluate t x);
  let xp = t.probe_x in
  Array.blit x 0 xp 0 n;
  for i = 0 to n - 1 do
    let xi = x.(i) in
    xp.(i) <- xi +. h;
    let fp = 1.0 -. fidelity_of (probe t xp i) ~target in
    xp.(i) <- xi -. h;
    let fm = 1.0 -. fidelity_of (probe t xp i) ~target in
    xp.(i) <- xi;
    g.(i) <- (fp -. fm) /. (2.0 *. h)
  done

(* Extract the gate angles used by layer [k] (family types only). *)
let gate_angles gate_type ~layers params k =
  assert (k >= 1 && k <= layers);
  let base = 6 * (layers + 1) in
  match gate_type with
  | Gates.Gate_type.Fixed _ -> [||]
  | Gates.Gate_type.Xy_family | Gates.Gate_type.Cphase_family ->
    [| params.(base + (k - 1)) |]
  | Gates.Gate_type.Fsim_family ->
    let base = base + (2 * (k - 1)) in
    [| params.(base); params.(base + 1) |]
