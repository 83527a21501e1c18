type row = Data of string list | Separator

type t = {
  headers : string list;
  ncols : int;
  mutable rows : row list; (* reversed *)
}

let create ~headers =
  let n = List.length headers in
  { headers; ncols = n; rows = [] }

let add_row t cells =
  if List.length cells <> t.ncols then
    invalid_arg
      (Printf.sprintf "Texttable.add_row: expected %d cells, got %d" t.ncols
         (List.length cells));
  t.rows <- Data cells :: t.rows

let add_separator t = t.rows <- Separator :: t.rows

(* The first column is left-aligned, every other one right-aligned. *)
let pad i width s =
  let fill = String.make (max 0 (width - String.length s)) ' ' in
  if i = 0 then s ^ fill else fill ^ s

let render t =
  let rows = List.rev t.rows in
  let widths = Array.of_list (List.map String.length t.headers) in
  List.iter
    (function
      | Separator -> ()
      | Data cells ->
          List.iteri
            (fun i c -> widths.(i) <- max widths.(i) (String.length c))
            cells)
    rows;
  let buf = Buffer.create 1024 in
  let rule () =
    Array.iteri
      (fun i w ->
        Buffer.add_string buf (String.make w '-');
        if i < t.ncols - 1 then Buffer.add_string buf "-+-")
      widths;
    Buffer.add_char buf '\n'
  in
  let emit_cells cells =
    List.iteri
      (fun i c ->
        Buffer.add_string buf (pad i widths.(i) c);
        if i < t.ncols - 1 then Buffer.add_string buf " | ")
      cells;
    Buffer.add_char buf '\n'
  in
  emit_cells t.headers;
  rule ();
  List.iter (function Separator -> rule () | Data cells -> emit_cells cells) rows;
  Buffer.contents buf

let print t = print_string (render t)
