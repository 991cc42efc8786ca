let clamp ~lo ~hi x =
  assert (lo <= hi);
  if x < lo then lo else if x > hi then hi else x

let approx_equal ?(eps = 1e-9) a b =
  a = b (* also covers equal infinities *)
  ||
  let diff = Float.abs (a -. b) in
  diff <= eps || diff <= eps *. Float.max (Float.abs a) (Float.abs b)

let feq ?eps a b = approx_equal ?eps a b
let fne ?eps a b = not (approx_equal ?eps a b)

let feq_rel ?(rel = 1e-9) a b =
  a = b (* also covers equal infinities and +-0 *)
  || Float.abs (a -. b) <= rel *. Float.max (Float.abs a) (Float.abs b)

let fne_rel ?rel a b = not (feq_rel ?rel a b)

let kahan_sum a =
  let sum = ref 0.0 and comp = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let y = a.(i) -. !comp in
    let t = !sum +. y in
    comp := t -. !sum -. y;
    sum := t
  done;
  !sum

let sum_by f a =
  let sum = ref 0.0 and comp = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let y = f a.(i) -. !comp in
    let t = !sum +. y in
    comp := t -. !sum -. y;
    sum := t
  done;
  !sum

let linspace a b k =
  if k < 2 then invalid_arg "Util.linspace: need k >= 2";
  let step = (b -. a) /. float_of_int (k - 1) in
  Array.init k (fun i -> if i = k - 1 then b else a +. (float_of_int i *. step))

let logspace a b k =
  if not (0.0 < a && a <= b) then invalid_arg "Util.logspace: need 0 < a <= b";
  let pts = linspace (log a) (log b) k in
  pts.(k - 1) <- log b;
  Array.map exp pts

let argmax f a =
  if Array.length a = 0 then invalid_arg "Util.argmax: empty array";
  let best = ref 0 and best_v = ref (f a.(0)) in
  for i = 1 to Array.length a - 1 do
    let v = f a.(i) in
    if v > !best_v then begin
      best := i;
      best_v := v
    end
  done;
  !best

let float_down x =
  if Float.is_nan x || x = Float.infinity || x = Float.neg_infinity then x
  else Float.pred x

let is_sorted_strict a =
  let n = Array.length a in
  let rec loop i = i >= n || (a.(i - 1) < a.(i) && loop (i + 1)) in
  loop 1
