(* Interconnect topologies between cells of the array.

   The classic design points of the surveyed architectures: 4-neighbour
   mesh (MorphoSys, ADRES default), torus (wrap-around), mesh-plus with
   diagonals, one-hop mesh (links skipping one cell), and a fully
   connected crossbar as the VLIW-like upper bound. *)

type t = Mesh | Torus | Diagonal | One_hop | Full

let to_string = function
  | Mesh -> "mesh"
  | Torus -> "torus"
  | Diagonal -> "diagonal"
  | One_hop -> "one-hop"
  | Full -> "full"

let of_string = function
  | "mesh" -> Mesh
  | "torus" -> Torus
  | "diagonal" -> Diagonal
  | "one-hop" | "one_hop" -> One_hop
  | "full" -> Full
  | s -> invalid_arg ("Topology.of_string: " ^ s)

(* Neighbours a value can be sent to in one cycle (excluding staying on
   the same PE, which is always possible).  Indices are r * cols + c.

   Offset arithmetic straight into the result list: mesh order is up,
   down, left, right; diagonal and one-hop append their four extra
   cells (up-left, up-right, down-left, down-right / two up, two down,
   two left, two right) after those; torus is ascending with wrapped
   duplicates merged; full is ascending. *)
let neighbours t ~rows ~cols pe =
  let r = pe / cols and c = pe mod cols in
  let add ok q rest = if ok then q :: rest else rest in
  let mesh rest =
    add (r > 0) (pe - cols)
      (add (r < rows - 1) (pe + cols) (add (c > 0) (pe - 1) (add (c < cols - 1) (pe + 1) rest)))
  in
  match t with
  | Mesh -> mesh []
  | Torus ->
      (* sorted insert, dropping duplicates and [pe] itself *)
      let rec insert q = function
        | x :: rest as l -> if q < x then q :: l else if q = x then l else x :: insert q rest
        | [] -> [ q ]
      in
      let ins q l = if q = pe then l else insert q l in
      let row r' = (r' * cols) + c and col c' = (r * cols) + c' in
      ins (row ((r + rows - 1) mod rows)) []
      |> ins (row ((r + 1) mod rows))
      |> ins (col ((c + cols - 1) mod cols))
      |> ins (col ((c + 1) mod cols))
  | Diagonal ->
      let up = r > 0 and down = r < rows - 1 and left = c > 0 and right = c < cols - 1 in
      mesh
        (add (up && left) (pe - cols - 1)
           (add (up && right) (pe - cols + 1)
              (add (down && left) (pe + cols - 1) (add (down && right) (pe + cols + 1) []))))
  | One_hop ->
      mesh
        (add (r > 1) (pe - (2 * cols))
           (add (r < rows - 2) (pe + (2 * cols)) (add (c > 1) (pe - 2) (add (c < cols - 2) (pe + 2) []))))
  | Full ->
      let rec down_from q acc = if q < 0 then acc else down_from (q - 1) (if q = pe then acc else q :: acc) in
      down_from ((rows * cols) - 1) []

let all = [ Mesh; Torus; Diagonal; One_hop; Full ]
