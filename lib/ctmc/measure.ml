let instant ?obs ?profile c ~at f =
  let pi = Transient.probabilities ?obs ?profile c ~t:at in
  let values = Explore.eval c f in
  let acc = ref 0.0 in
  Array.iteri (fun i p -> acc := !acc +. (p *. values.(i))) pi;
  !acc

let interval_average ?obs ?profile c ?(from_ = 0.0) ~until f =
  if not (0.0 <= from_ && from_ < until) then
    invalid_arg "Ctmc.Measure.interval_average: bad window";
  let upto t = Transient.accumulated ?obs ?profile c ~t in
  let hi = upto until in
  let lo = if from_ = 0.0 then Array.map (fun _ -> 0.0) hi else upto from_ in
  let values = Explore.eval c f in
  let acc = ref 0.0 in
  Array.iteri
    (fun i v -> acc := !acc +. ((hi.(i) -. lo.(i)) *. v))
    values;
  !acc /. (until -. from_)

let ever ?obs ?profile c ~until pred =
  let flags = Explore.eval c (fun m -> if pred m then 1.0 else 0.0) in
  let absorbed = Explore.make_absorbing c (fun i -> flags.(i) = 1.0) in
  let pi = Transient.probabilities ?obs ?profile absorbed ~t:until in
  let acc = ref 0.0 in
  Array.iteri (fun i p -> if flags.(i) = 1.0 then acc := !acc +. p) pi;
  !acc

let steady_average c f =
  let pi = Steady.distribution c in
  let values = Explore.eval c f in
  let acc = ref 0.0 in
  Array.iteri (fun i p -> acc := !acc +. (p *. values.(i))) pi;
  !acc
