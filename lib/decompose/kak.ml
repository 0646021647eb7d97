(* Structured KAK (Kraus-Cirac) decomposition of two-qubit unitaries:

       U = (A1 (x) A2) . N(c1, c2, c3) . (B1 (x) B2)    (up to global phase)

   The canonical coordinates come from the verified Weyl extraction;
   the four single-qubit dressings are then the solution of a smooth
   12-parameter fit (the class membership guarantees an exact solution
   exists, so the optimizer converges to machine precision).  The result
   is checked — [decompose] raises [Failed] rather than return an
   unverified factorization. *)

open Linalg

exception Failed

type t = {
  coordinates : float * float * float;
  a1 : Mat.t;  (** post-rotation on the first qubit *)
  a2 : Mat.t;
  b1 : Mat.t;  (** pre-rotation on the first qubit *)
  b2 : Mat.t;
  global_phase : float;
}

let reconstruct d =
  let c1, c2, c3 = d.coordinates in
  let core = Weyl.canonical_gate c1 c2 c3 in
  let m = Mat.mul (Mat.kron d.a1 d.a2) (Mat.mul core (Mat.kron d.b1 d.b2)) in
  Mat.scale (Cplx.cis d.global_phase) m

let u3_of params base =
  Gates.Oneq.u3 params.(base) params.(base + 1) params.(base + 2)

let decompose u =
  if Mat.rows u <> 4 || Mat.cols u <> 4 then invalid_arg "Kak.decompose: need 4x4";
  let c1, c2, c3 = Weyl.coordinates u in
  let core = Weyl.canonical_gate c1 c2 c3 in
  (* fit A1, A2, B1, B2 (12 angles):
     maximize |tr((A . core . B)^dag u)| / 4 *)
  let objective params =
    let a = Mat.kron (u3_of params 0) (u3_of params 3) in
    let b = Mat.kron (u3_of params 6) (u3_of params 9) in
    let m = Mat.mul a (Mat.mul core b) in
    1.0 -. (Complex.norm (Mat.hs_inner m u) /. 4.0)
  in
  let rng = Rng.create 31 in
  let rec attempt k best =
    if k = 0 then best
    else begin
      let x0 = Array.init 12 (fun _ -> Rng.uniform rng (-.Float.pi) Float.pi) in
      let r =
        Optimize.Bfgs.minimize
          ~options:
            { Optimize.Bfgs.default_options with max_iter = 300; f_tol = 1e-12 }
          objective x0
      in
      let best =
        match best with
        | Some (b : Optimize.Bfgs.result) when b.f <= r.f -> Some b
        | _ -> Some r
      in
      match best with
      | Some b when b.f < 1e-10 -> Some b
      | _ -> attempt (k - 1) best
    end
  in
  match attempt 6 None with
  | Some r when r.Optimize.Bfgs.f < 1e-8 ->
    let p = r.Optimize.Bfgs.x in
    let a1 = u3_of p 0 and a2 = u3_of p 3 and b1 = u3_of p 6 and b2 = u3_of p 9 in
    (* recover the global phase from the trace *)
    let m =
      Mat.mul (Mat.kron a1 a2) (Mat.mul core (Mat.kron b1 b2))
    in
    let phase = Complex.arg (Mat.hs_inner m u) in
    let d = { coordinates = (c1, c2, c3); a1; a2; b1; b2; global_phase = phase } in
    if Mat.equal_up_to_phase ~eps:1e-6 (reconstruct d) u then d else raise Failed
  | _ -> raise Failed

let interaction_strength d =
  let c1, c2, c3 = d.coordinates in
  c1 +. c2 +. Float.abs c3

let pp ppf d =
  let c1, c2, c3 = d.coordinates in
  Fmt.pf ppf "KAK(c = (%.4f, %.4f, %.4f), phase = %.4f)" c1 c2 c3 d.global_phase
