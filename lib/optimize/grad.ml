(* Finite-difference gradients.

   NuOp's objective (decomposition infidelity of a 4x4 template) is smooth
   and cheap, so central differences with a fixed step are accurate and
   simpler than analytic differentiation through the template product. *)

let central ~h f x ~g ~xp =
  let n = Array.length x in
  assert (Array.length g = n && Array.length xp = n);
  Array.blit x 0 xp 0 n;
  for i = 0 to n - 1 do
    let xi = x.(i) in
    xp.(i) <- xi +. h;
    let fp = f xp in
    xp.(i) <- xi -. h;
    let fm = f xp in
    xp.(i) <- xi;
    g.(i) <- (fp -. fm) /. (2.0 *. h)
  done

let norm g =
  let acc = ref 0.0 in
  for i = 0 to Array.length g - 1 do
    acc := !acc +. (g.(i) *. g.(i))
  done;
  Float.sqrt !acc

let dot a b =
  assert (Array.length a = Array.length b);
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc
