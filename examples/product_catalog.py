"""Catalog and SKU management.

The paper's introduction names "catalog and SKU management systems
[that] need the ability to change and update information on the fly" as
a driving workload.  This example models a product catalog with nested
JSON (variants inside products, orders referencing products) and uses
the N1QL features the paper highlights:

* UNNEST to flatten nested variant arrays (section 3.2.3),
* NEST to assemble a user's orders into one document (the paper's
  example query, section 3.2.3),
* an array index over categories (section 6.1.2),
* a partial index over in-stock products (section 3.3.4),
* a covering index for the hot listing query (section 5.1.2), and
* GROUP BY analytics over the catalog.

Run:  python examples/product_catalog.py
"""

from repro import Cluster

CATEGORIES = ["audio", "video", "gaming", "home"]


def load_catalog(client) -> None:
    for i in range(60):
        client.upsert("catalog", f"product::{i:04d}", {
            "doc_type": "product",
            "name": f"Gadget {i:04d}",
            "price": 9.99 + i,
            "in_stock": i % 4 != 0,
            "categories": [CATEGORIES[i % 4], CATEGORIES[(i + 1) % 4]],
            "variants": [
                {"sku": f"SKU-{i:04d}-S", "size": "S", "stock": i % 5},
                {"sku": f"SKU-{i:04d}-L", "size": "L", "stock": (i + 3) % 7},
            ],
        })
    # A user profile with an embedded order history, as in the paper's
    # NEST example.
    client.upsert("catalog", "profile::borkar123", {
        "doc_type": "user_profile",
        "personal_details": {"name": "Dipti"},
        "shipped_order_history": [
            {"order_id": "order::1"}, {"order_id": "order::2"},
        ],
    })
    client.upsert("catalog", "order::1", {
        "doc_type": "order", "product": "product::0001", "qty": 2,
    })
    client.upsert("catalog", "order::2", {
        "doc_type": "order", "product": "product::0017", "qty": 1,
    })


def main() -> None:
    cluster = Cluster(nodes=3, vbuckets=64)
    cluster.create_bucket("catalog")
    client = cluster.connect()
    load_catalog(client)
    cluster.query("CREATE PRIMARY INDEX ON catalog USING GSI")

    # -- the paper's NEST example, almost verbatim -------------------------------
    print("== NEST: assemble a user's orders ==")
    rows = cluster.query(
        "SELECT po.personal_details, orders "
        "FROM catalog po USE KEYS 'profile::borkar123' "
        "NEST catalog AS orders "
        "ON KEYS ARRAY s.order_id FOR s IN po.shipped_order_history END",
        scan_consistency="request_plus",
    ).rows
    print(f"  {rows[0]['personal_details']} has "
          f"{len(rows[0]['orders'])} orders nested in one result")
    assert len(rows[0]["orders"]) == 2

    # -- the paper's UNNEST example -------------------------------------------------
    print("\n== UNNEST: list the in-use product categories ==")
    rows = cluster.query(
        "SELECT DISTINCT categories FROM catalog product "
        "UNNEST product.categories AS categories "
        "WHERE product.doc_type = 'product'",
        scan_consistency="request_plus",
    ).rows
    print(f"  categories in use: {sorted(r['categories'] for r in rows)}")
    assert len(rows) == 4

    # -- array index over categories (4.5 feature, section 6.1.2) ----------------------
    print("\n== array index ==")
    cluster.query(
        "CREATE INDEX by_category ON catalog"
        "(DISTINCT ARRAY c FOR c IN categories END) USING GSI")
    tagged_audio = ("SELECT META(p).id FROM catalog p "
                    "WHERE ANY c IN p.categories SATISFIES c = 'audio' END")
    explain = cluster.query(f"EXPLAIN {tagged_audio}")
    assert explain.rows[0]["~children"][0]["index"] == "by_category"
    audio = cluster.query(tagged_audio, scan_consistency="request_plus").rows
    print(f"  {len(audio)} products tagged 'audio' via the array index")
    assert len(audio) == 30

    # -- partial index over in-stock products (section 3.3.4) ----------------------------
    print("\n== partial index ==")
    cluster.query(
        "CREATE INDEX in_stock_price ON catalog(price) "
        "WHERE in_stock = TRUE USING GSI")
    explain = cluster.query(
        "EXPLAIN SELECT c.price FROM catalog c "
        "WHERE c.in_stock = TRUE AND c.price > 50")
    scan = explain.rows[0]["~children"][0]
    print(f"  planner chose: {scan['index']} (covered={bool(scan.get('covers'))})")
    assert scan["index"] == "in_stock_price"

    # -- covering index for the hot listing query (section 5.1.2) -------------------------
    print("\n== covering index ==")
    cluster.query("CREATE INDEX listing ON catalog(name, price) USING GSI")
    explain = cluster.query(
        "EXPLAIN SELECT c.name, c.price FROM catalog c "
        "WHERE c.name LIKE 'Gadget 00%'")
    ops = [op["#operator"] for op in explain.rows[0]["~children"]]
    print(f"  plan: {ops} (no Fetch -- answered from the index alone)")
    assert "Fetch" not in ops

    # -- catalog analytics -----------------------------------------------------------------
    print("\n== GROUP BY analytics ==")
    rows = cluster.query(
        "SELECT cat, COUNT(*) AS products, "
        "       ROUND(AVG(product.price), 2) AS avg_price "
        "FROM catalog product UNNEST product.categories AS cat "
        "WHERE product.doc_type = 'product' "
        "GROUP BY cat ORDER BY cat",
        scan_consistency="request_plus",
    ).rows
    for row in rows:
        print(f"  {row['cat']:>7}: {row['products']} products, "
              f"avg ${row['avg_price']}")
    assert sum(r["products"] for r in rows) == 120  # 60 products x 2 tags

    # -- on-the-fly updates, the intro's requirement -----------------------------------------
    print("\n== sub-document price update via N1QL ==")
    result = cluster.query(
        "UPDATE catalog c SET c.price = c.price * 0.9 "
        "WHERE c.doc_type = 'product' AND c.price > 60 "
        "RETURNING meta(c).id",
        scan_consistency="request_plus",
    )
    print(f"  discounted {result.mutation_count} products")
    assert result.mutation_count > 0

    print("\nproduct_catalog OK")


if __name__ == "__main__":
    main()
