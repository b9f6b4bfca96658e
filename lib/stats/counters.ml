type t = (string, int ref) Hashtbl.t

let create () : t = Hashtbl.create 32

let cell t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t name r;
      r

let add t name n =
  let r = cell t name in
  r := !r + n

(* The cell is looked up on the first bump, not when the key is made, so
   a key that never fires leaves its counter absent, as [add] would. *)
type key = { tbl : t; name : string; mutable cell : int ref option }

let key tbl name = { tbl; name; cell = None }

let[@inline] bump k n =
  match k.cell with
  | Some r -> r := !r + n
  | None ->
      let r = cell k.tbl k.name in
      k.cell <- Some r;
      r := !r + n

let incr t name = add t name 1

let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

let mem t name = Hashtbl.mem t name

let find t name =
  match Hashtbl.find_opt t name with
  | Some r -> !r
  | None ->
      invalid_arg
        (Printf.sprintf
           "Counters.find: no counter named %S (known: %s)" name
           (String.concat ", "
              (List.sort String.compare
                 (Hashtbl.fold (fun k _ acc -> k :: acc) t []))))

let merge ~into src = Hashtbl.iter (fun name r -> add into name !r) src

let reset t = Hashtbl.iter (fun _ r -> r := 0) t

let to_list t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
