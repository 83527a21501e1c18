let sum xs = List.fold_left ( +. ) 0.0 xs

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)

let stdev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let n = float_of_int (List.length xs) in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
      sqrt (ss /. (n -. 1.0))

let geomean = function
  | [] -> 0.0
  | xs ->
      let logs =
        List.map
          (fun x ->
            if x <= 0.0 then invalid_arg "Stats.geomean: non-positive value"
            else log x)
          xs
      in
      exp (mean logs)

let sorted xs = List.sort compare xs

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile p xs =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty list"
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

type summary = { mean : float; stdev : float }

let summarize xs = { mean = mean xs; stdev = stdev xs }
